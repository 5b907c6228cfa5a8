"""The three workloads, their operations, and each operation's check.

Every workload is a closed loop with one client: operations run one after
another in fresh processes.  An operation's check returns the accuracy
margins it measured, as (label, tolerance, observed error) triples, or
raises CheckFailed.  An operation that fails in exactly the way of a
known, documented defect raises KnownDefect instead; it still counts
against passed_frac but not as a new failure.  An error above its
tolerance gives a negative margin, which fails the operation.

Tolerances are the tier-1 ones: test_01 (closed-form moments, 1e-6),
test_02 (contour-family moments, 1e-5), test_03 (vanishing moments, 1e-6
and 1e-5 for omega3), test_04 (omega2 closed form vs convolution, 1e-5),
TestSplineDensities (spline vs direct contour, 1e-8), TestDualRoute
(convolution vs direct contour, 1e-7) and TestComplexK0 (mpmath, 1e-12).
"""

import json
import math

import numpy as np

# Spline and convolution outputs are compared with the direct contour on
# the density's body.  Tier-1 asserts those tolerances at 0.1 <= x <= 50;
# the deep tail (W below ~1e-6 of its scale) carries no tier-1 tolerance.
BODY_X_MAX = 1e2


class CheckFailed(Exception):
    pass


class KnownDefect(Exception):
    pass


class Op:
    """One operation: CLI arguments, or a library case for the child."""

    def __init__(self, name, check, argv=None, case=None):
        self.name, self.check, self.argv, self.case = name, check, argv, case


class Outcome:
    """Exit code and output of a CLI call; `line` is a library case's result."""

    def __init__(self, rc, stdout, stderr, line=None):
        self.rc, self.stdout, self.stderr, self.line = rc, stdout, stderr, line


def _payload(out, rcs=(0,)):
    if out.rc not in rcs:
        tail = out.stderr.strip().splitlines()[-1:] or [""]
        raise CheckFailed(f"exit code {out.rc}: {tail[0]}")
    return json.loads(out.stdout)


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _within(label, tol, errs):
    return [(label, tol, float(np.max(errs)))]


def _points(out, keys, seq, n=200):
    data = _payload(out)
    if seq:
        _require(data["seq"] == seq, f"seq {data['seq']!r} != {seq!r}")
    pts = data["points"]
    _require(len(pts) == n, f"{len(pts)} points, expected {n}")
    xs = np.array([p["x"] for p in pts], dtype=float)
    vals = {k: np.array([p[k] for p in pts], dtype=float) for k in keys}
    for k, v in vals.items():
        _require(np.all(np.isfinite(v)), f"non-finite {k}")
    return xs, vals


def _log_target(factors, n):
    return sum(math.lgamma(a * n + b) for a, b in factors)


def _moments(seq, factors, tol):
    def check(out):
        results = _payload(out)["results"]
        _require([r["n"] for r in results] == list(range(9)), "n != 0..8")
        errs = []
        for r in results:
            target = _log_target(factors, r["n"])
            _require(abs(r["log_target"] - target) <= 1e-12 * max(1.0, abs(target)),
                     f"n={r['n']}: log_target {r['log_target']!r} != {target!r}")
            errs.append(abs(math.expm1(r["log_integral"] - target)))
        return _within(f"check_moment {seq} n=0..8", tol, errs)
    return check


def _log_w1(q, xs):
    return -math.log(q) - ((q - 1.0) / q) * np.log(xs) - xs ** (1.0 / q)


def _log_w2(r, xs):
    import scipy.special as sps
    z = 2.0 * xs ** (1.0 / (2.0 * r))
    return (math.log(2.0 / r) - ((r - 1.0) / r) * np.log(xs)
            + np.log(sps.k0e(z)) - z)


def _closed_form(seq, log_ref, tol):
    """Density equals its closed form; error in ln W relative to max(1, |ln W|)."""
    def check(out):
        xs, vals = _points(out, ("density",), seq)
        dens = vals["density"]
        _require(np.all(dens > 0.0), "density not positive")
        ref = log_ref(xs)
        err = np.abs(np.log(dens) - ref) / np.maximum(1.0, np.abs(ref))
        _require(float(np.max(err)) <= tol,
                 f"closed form: {np.max(err):.2e} > {tol:.0e}")
        return []
    return check


def _spline_vs_direct(out):
    import gammamoments as gm
    xs, vals = _points(out, ("density",), "tm3:r=1")
    dens = vals["density"]
    _require(np.all(dens > 0.0), "density not positive")
    body = xs <= BODY_X_MAX
    direct = np.array([gm.w3(1, float(x)) for x in xs[body]])
    return _within("spline vs direct contour, tm3:r=1", 1e-8,
                   np.abs(dens[body] - direct) / direct)


def _convolve_vs_direct(out):
    import gammamoments as gm
    xs, vals = _points(out, ("convolution",), None)
    conv = vals["convolution"]
    body = xs <= BODY_X_MAX
    direct = np.array([gm.w4(1, float(x)) for x in xs[body]])
    return _within("convolve tm1*tm2 vs direct w4(1, x)", 1e-7,
                   np.abs(conv[body] - direct) / direct)


def _criteria(seq, overall, parts):
    def check(out):
        data = _payload(out)
        _require(data["seq"] == seq, f"seq {data['seq']!r} != {seq!r}")
        _require(data["overall"] == overall, f"overall {data['overall']} != {overall}")
        for key, want in parts.items():
            _require(data[key]["verdict"] == want,
                     f"{key} {data[key]['verdict']} != {want}")
        return []
    return check


def _criteria_indeterminate(out):
    # Gamma(2.02n+1): A = 2.02 > 2, so the problem is indeterminate
    data = _payload(out, rcs=(0, 2))
    if out.rc == 0 and data["overall"] == "Unique":
        raise KnownDefect("says Unique although A = 2.02 > 2 is indeterminate")
    _require((data["overall"], out.rc) in (("NonUnique", 0), ("Undecided", 2)),
             f"overall {data['overall']} with exit code {out.rc}")
    return []


def _class_tm1(out):
    xs, v = _points(out, ("base", "member", "omega"), "tm1:r=2")
    base, member, omega = v["base"], v["member"], v["omega"]
    _require(np.all(member >= 0.0), "member negative")
    err = np.abs(np.log(base) - _log_w1(4, xs)) / np.maximum(1.0, np.abs(np.log(base)))
    _require(float(np.max(err)) <= 1e-14,
             f"base off the closed form: {np.max(err):.2e}")
    _require(np.all(np.abs(member - (base + 0.5 * omega)) <= 1e-12 * base),
             "member != base + eps * omega")
    _require(np.all(np.abs(omega) <= base * (1.0 + 1e-12)), "|omega| > base")
    return []


def _class_tm2(out):
    xs, v = _points(out, ("base", "member", "omega"), "tm2:r=3")
    base, member, omega = v["base"], v["member"], v["omega"]
    _require(np.all(member >= 0.0), "member negative")
    _require(np.all(np.abs(member - (base + 1.0 * omega)) <= 1e-10 * base),
             "member != base + gamma * omega")
    return []


def _gamma_max(payload):
    return float(payload["gamma_max"])  # the CLI writes nan/inf as strings


def _gamma_max_seeded(seed):
    def check(out):
        data = _payload(out)
        bound = _gamma_max(data)
        _require(math.isfinite(bound) and bound > 0.0, f"gamma_max {bound!r}")
        mc = data["monte_carlo"]
        _require(mc["seed"] == seed, "monte carlo seed not echoed")
        _require(mc["nonnegative"] is True and mc["min_value"] >= 0.0,
                 f"member negative at the bound: {mc['min_value']!r}")
        return []
    return check


def _gamma_max_finite(out):
    data = _payload(out)
    bound = _gamma_max(data)
    if math.isnan(bound):
        raise KnownDefect("gamma_max is nan")
    _require(math.isfinite(bound) and bound > 0.0, f"gamma_max {bound!r}")
    return []


def _gamma_max_clean_exit(out):
    if out.rc == 1 and "Traceback" in out.stderr and "OverflowError" in out.stderr:
        raise KnownDefect("raw OverflowError traceback, exit code 1")
    _require("Traceback" not in out.stderr, "traceback on stderr")
    _require(out.rc in (0, 3), f"exit code {out.rc}")
    if out.rc == 0:
        bound = _gamma_max(json.loads(out.stdout))
        _require(math.isfinite(bound) and bound > 0.0, f"gamma_max {bound!r}")
    return []


def _vanishing(factors, tol, oracles=None):
    def check(out):
        line = out.line
        _require(line is not None, "no result line")
        _require("error" not in line, line.get("error", ""))
        errs = []
        for n, log_integral, log_target, _, _ in line["results"]:
            target = _log_target(factors, n)
            _require(abs(log_target - target) <= 1e-12 * max(1.0, abs(target)),
                     f"n={n}: log_target {log_target!r} != {target!r}")
            errs.append(math.exp(log_integral - target))  # |integral| / rho(n)
        margins = _within(f"check_vanishing {line['name']}", tol, errs)
        return margins + (oracles() if oracles else [])
    return check


def _omega2_oracles(seed):
    """omega2 closed form vs convolution route; complex K0 vs mpmath."""
    import mpmath
    import gammamoments as gm
    r, k = 3, 1
    rng = np.random.default_rng(seed)
    xs = np.exp(rng.uniform(math.log(0.5), math.log(5.0), 16))
    closed = gm.omega2(r, k, xs)
    conv = gm.omega2_via_convolution(r, k, xs)
    margins = _within("omega2 vs omega2_via_convolution", 1e-5,
                      np.abs(conv - closed) / np.abs(closed))
    # K0 arguments on the ray omega2(3, 1) uses, both sides of the
    # quadrature/asymptotic switch at |z| = 30
    beta = complex(np.sqrt(1.0 + 1j * math.tan(math.pi * k / r)))
    zs = 2.0 * beta * np.exp(rng.uniform(math.log(0.05), math.log(60.0), 128))
    got = gm.bessel_k0_complex(zs)
    mpmath.mp.dps = 25
    want = np.array([complex(mpmath.besselk(0, complex(z))) for z in zs])
    return margins + _within("bessel_k0_complex vs mpmath", 1e-12,
                             np.abs(got - want) / np.abs(want))


def contour_cli(seed):
    return [
        Op("eval tm3:r=1", _spline_vs_direct,
           argv=["eval", "--seq", "tm3:r=1"]),
        Op("moments tm4:r=1 n=0..8",
           _moments("tm4:r=1", ((2, 1), (1, 1), (1, 1)), 1e-5),
           argv=["moments", "--seq", "tm4:r=1", "--n", "0..8"]),
        Op("criteria gamma:2.02n+1", _criteria_indeterminate,
           argv=["criteria", "--seq", "gamma:2.02n+1"]),
    ]


def _case(name, family, r, k, ns, factors, tol, oracles=None):
    return Op(name, _vanishing(factors, tol, oracles),
              case={"name": name, "family": family, "r": r, "k": k, "ns": ns})


def vanishing(seed):
    n_all = list(range(9))
    return [
        _case("omega1(2,1) n=0..8", "tm1", 2, 1, n_all, ((4, 1),), 1e-6),
        _case("omega2(3,1) n=0..8", "tm2", 3, 1, n_all, ((3, 1),) * 2, 1e-6,
              lambda: _omega2_oracles(seed)),
        _case("omega3(3,1) n=0", "tm3", 3, 1, [0], ((3, 1),) * 3, 1e-5),
        _case("omega3(3,1) n=8", "tm3", 3, 1, [8], ((3, 1),) * 3, 1e-5),
    ]


def cli_closed_form(seed):
    return [
        Op("eval tm1:r=2", _closed_form("tm1:r=2", lambda xs: _log_w1(4, xs), 1e-14),
           argv=["eval", "--seq", "tm1:r=2"]),
        Op("eval tm2:r=2", _closed_form("tm2:r=2", lambda xs: _log_w2(2, xs), 1e-13),
           argv=["eval", "--seq", "tm2:r=2"]),
        Op("moments tm1:r=2 n=0..8", _moments("tm1:r=2", ((4, 1),), 1e-6),
           argv=["moments", "--seq", "tm1:r=2", "--n", "0..8"]),
        Op("moments tm2:r=3 n=0..8", _moments("tm2:r=3", ((3, 1),) * 2, 1e-6),
           argv=["moments", "--seq", "tm2:r=3", "--n", "0..8"]),
        Op("criteria tm1:r=1", _criteria("tm1:r=1", "Unique", {"c1": "Divergent"}),
           argv=["criteria", "--seq", "tm1:r=1"]),
        Op("criteria tm2:r=2",
           _criteria("tm2:r=2", "NonUnique", {"c2": "Finite", "c3": "NonUnique"}),
           argv=["criteria", "--seq", "tm2:r=2"]),
        Op("class tm1:r=2 eps=0.5", _class_tm1,
           argv=["class", "--seq", "tm1:r=2", "--k", "1", "--eps", "0.5"]),
        Op("class tm2:r=3 gamma=1.0", _class_tm2,
           argv=["class", "--seq", "tm2:r=3", "--k", "1", "--gamma", "1.0"]),
        Op("class tm2:r=3 find-gamma-max mc-seed", _gamma_max_seeded(seed),
           argv=["class", "--seq", "tm2:r=3", "--k", "1", "--find-gamma-max",
                 "--mc-seed", str(seed)]),
        Op("convolve tm1:r=1 * tm2:r=1", _convolve_vs_direct,
           argv=["convolve", "--seq-a", "tm1:r=1", "--seq-b", "tm2:r=1"]),
        Op("class tm2:r=9 find-gamma-max", _gamma_max_finite,
           argv=["class", "--seq", "tm2:r=9", "--k", "1", "--find-gamma-max"]),
        Op("class tm2:r=40 find-gamma-max", _gamma_max_clean_exit,
           argv=["class", "--seq", "tm2:r=40", "--k", "1", "--find-gamma-max"]),
    ]


# name -> (operations for a seed, True when one process runs them all)
WORKLOADS = {
    "contour_cli": (contour_cli, False),
    "vanishing": (vanishing, True),
    "cli_closed_form": (cli_closed_form, False),
}
