"""Experiment harness: config files, replications, reference values, and the
invariant verification suite behind the CLI.

Config files are flat INI-style sections of ``key = value`` lines, checked
when loaded against ``_SCHEMA``, which declares each key's type, default,
allowed values and scope once.  Unknown sections or keys and keys set where
the run would not read them are hard errors, malformed files report line
numbers, and every relative path is resolved against the config file's
directory.  See configs/reference.cfg for the full key catalog.
"""
from __future__ import annotations

import configparser
import inspect
import sys
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from . import instances as _inst
from .bregman import (
    BregmanSchedule,
    step_cap,
    sufficient_decrease,
    validate_schedule,
)
from .csvout import write_csv
from .diagnostics import (
    CheckRow,
    ConstantsRecord,
    GridProxOracle,
    RateReport,
    auto_neighborhood,
    check_level_dominance,
    check_value_proximity,
    compute_constants,
    contraction_audit,
    expectation_identities,
    fit_linear_rate,
    make_check,
    worst_check,
    worst_row,
    write_report_csv,
)
from .model import _REG_KINDS, L1Penalty, McpPenalty, ProblemInstance, ScadPenalty
from .probes import (
    EmptyNeighborhoodError,
    check_lt_eb_step,
    gap_floor,
    probe_bp_eb,
    probe_kl,
    probe_lt_eb,
    probe_ls_eb,
    sample_level_ball,
    write_probe_csv,
)
from .prox import coordinate_prox_all, envelope_value, full_prox_rows, scalar_prox
from .solver import (
    SolverAbort,
    SolverConfig,
    derive_seed,
    fixed_point,
    match_oracle,
    near_start_point,
    run,
    run_lockstep,
    sample_in_ball,
    write_trajectory_csv,
)


_VERIFY_STREAM = 0x5EC0_51DE  # rng stream offset for the verification suite
_PROBE_STREAM = 0x9B0B_E5A1  # rng stream offset for error-bound probes
_EB_INFLATION = 1.1  # factor on a probed error-bound constant before use


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema


def _matrix_file(matrix_file, rhs_file, reg, n_blocks, **params):
    A = np.loadtxt(matrix_file, ndmin=2)
    b = np.loadtxt(rhs_file, ndmin=1)
    return _inst.matrix_instance(A, b, reg, params, n_blocks)


# [instance] kind -> factory; a kind takes the config keys that name its
# factory's parameters, renamed through _RENAMES, and requires those whose
# parameter has no default (matrix-file: also those of its reg kind's class)
_INSTANCES = {
    "lasso-1d": _inst.lasso_1d, "quad-1d": _inst.quad_1d, "quad-l1-1d": _inst.quad_l1_1d,
    "diag-quadratic": _inst.diag_quadratic, "lasso-random": _inst.lasso_random,
    "quadratic-mcp": _inst.quadratic_mcp, "quadratic-scad": _inst.quadratic_scad,
    "logistic-random": _inst.logistic_random, "matrix-file": _matrix_file,
}
_RENAMES = {"blocks": "n_blocks", "design_seed": "seed"}

# subcommand -> flow, filled in below the flows; its keys are the
# [experiment] kinds and the CLI subcommands
FLOWS: dict = {}

REQUIRED = object()  # default of a key that a config must set where the key applies


@dataclass(frozen=True)
class Key:
    """One config key: its type, its default, the values it allows and where it applies.

    ``type`` is int, float, str, or tuple[T, ...] for a comma list of T.
    ``default`` fills in a key the file leaves out; None leaves it absent
    (the key is optional) and REQUIRED makes leaving it out an error.
    ``allowed`` is an interval such as "[1, inf)" or a collection of
    choices, and holds for every element of a list.  Floats must be finite.
    ``when = (section, key, values)`` limits the key to configs where
    [section] key, which is not a list, applies and is one of ``values``:
    set elsewhere it is an error, and a REQUIRED key is required only there.
    """

    type: object
    default: object = None
    allowed: object = None
    when: tuple | None = None

    @property
    def item(self):
        """The element type: T for tuple[T, ...], else the type itself."""
        return self.type.__args__[0] if getattr(self.type, "__origin__", None) is tuple else self.type

    def domain(self) -> str:
        """The allowed values in words, as error messages and configs/reference.cfg give them."""
        noun = {int: "an int", float: "a finite float", str: "a string"}[self.item]
        if isinstance(self.allowed, str):
            noun += f" in {self.allowed}"
        elif self.allowed is not None:
            noun = "one of " + " | ".join(self.allowed)
        return noun if self.item is self.type else f"a non-empty comma list, each {noun}"

    def scope(self) -> str:
        """Where the key applies, in words, as error messages and configs/reference.cfg give it."""
        section, key, values = self.when
        return f"[{section}] {key} = {' | '.join(values)}"

    def unmet(self, data: dict):
        """The first Key, outermost first, of this one and those its
        condition rests on, whose ``when`` fails for the loaded sections
        ``data``; None when the key applies."""
        if self.when is None:
            return None
        section, key, values = self.when
        if (outer := _SCHEMA[section][key].unmet(data)) is not None:
            return outer
        return None if data[section].get(key) in values else self

    def admits(self, value) -> bool:
        """Is ``value`` (one element, for a list) allowed?"""
        if isinstance(value, float) and not np.isfinite(value):
            return False
        if isinstance(self.allowed, str):
            lo, hi = (2**64 if b == "2^64" else float(b) for b in self.allowed[1:-1].split(", "))
            return ((lo < value or self.allowed[0] == "[" and lo == value)
                    and (value < hi or self.allowed[-1] == "]" and value == hi))
        return self.allowed is None or value in self.allowed


_COUNT = Key(int, None, "[1, inf)")
_SEED = Key(int, None, "[0, 2^64)")
_NONNEGATIVE = Key(float, None, "[0, inf)")

# the Key.when of keys that only some runs read
_REPLICATED = ("experiment", "kind", ("solve", "rate"))
_PROBED = ("experiment", "kind", ("rate", "verify", "probe-eb"))
_ALTERNATING = ("bregman", "weights", ("alternating",))
_HARMONIC = ("bregman", "eps_rule", ("harmonic-clipped",))
_ITERATED = ("reference", "source", ("best-found",))

# section -> key -> Key: the one place a key's type, default, range and
# scope live
_SCHEMA = {
    "experiment": {
        "kind": Key(str, REQUIRED, FLOWS),
        "seed": Key(int, 0, "[0, 2^64)"),
        "replications": Key(int, 1, "[1, inf)", _REPLICATED),
        "output_dir": Key(str, "out"),
    },
    # the instance factories default the keys a config leaves out
    "instance": {
        "kind": Key(str, REQUIRED, _INSTANCES),
        "n": _COUNT, "blocks": _COUNT, "rows": _COUNT, "design_seed": _SEED,
        "l1_weight": _NONNEGATIVE, "weight": _NONNEGATIVE, "lam": _NONNEGATIVE, "mu": _NONNEGATIVE,
        "gamma": Key(float, None, "(1, inf)"), "a": Key(float, None, "(2, inf)"),
        "min_eig": _NONNEGATIVE, "max_eig": _NONNEGATIVE, "eigs": Key(tuple[float, ...], None, "(0, inf)"),
        "target": Key(float), "matrix_file": Key(str), "rhs_file": Key(str),
        "reg": Key(str, None, _REG_KINDS),
    },
    "bregman": {
        "weights": Key(str, "constant", ("constant", "alternating")),
        "q": Key(float, 1.0, "(0, inf)", ("bregman", "weights", ("constant",))),
        "q_lo": Key(float, REQUIRED, "(0, inf)", _ALTERNATING),
        "q_hi": Key(float, REQUIRED, "(0, inf)", _ALTERNATING),
        "period": Key(int, 1, "[1, inf)", _ALTERNATING),
        "eps_rule": Key(str, "relative", ("constant", "relative", "harmonic-clipped")),
        "eps": Key(float, REQUIRED, "(0, inf)", ("bregman", "eps_rule", ("constant",))),
        "eps_fraction": Key(float, 0.8, "(0, 1)", ("bregman", "eps_rule", ("relative",))),
        "eps_lo": Key(float, REQUIRED, "(0, inf)", _HARMONIC),
        "eps_hi": Key(float, REQUIRED, "(0, inf)", _HARMONIC),
    },
    "solver": {
        "max_iters": Key(int, 1000, "[1, inf)"),
        "tolerance": Key(float, 1e-10, "[0, inf)"),
        "check_period": Key(int, None, "[1, inf)", _REPLICATED),  # default: the block count
        "x0": Key(str, "zeros", ("zeros", "near-start"), _REPLICATED),
        "near_start_radius": Key(float, 1.0, "[0, inf)", ("solver", "x0", ("near-start",))),
    },
    # resolve_reference_value defaults max_steps and tolerance
    "reference": {
        "source": Key(str, "auto", ("auto", "known", "best-found")),
        "max_steps": Key(int, None, "[1, inf)", _ITERATED),
        "tolerance": Key(float, None, "[0, inf)", _ITERATED),
    },
    # eta and nu default to values derived from the run
    "probe": {
        "kinds": Key(tuple[str, ...], ("ls-eb",), ("ls-eb", "kl", "bp-eb", "lt-eb"), _PROBED),
        "eta": Key(float, None, "(0, inf)", _PROBED), "nu": Key(float, None, "(0, inf)", _PROBED),
        "samples": Key(int, 10_000, "[1, inf)", _PROBED),
    },
    "verify": {
        "points": Key(int, 1000, "[1, inf)", ("experiment", "kind", ("verify",))),
        "prox_queries": Key(int, 1000, "[1, inf)", ("experiment", "kind", ("verify",))),
    },
}


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    replications: int
    out_dir: str
    instance: dict
    bregman: dict
    solver: dict
    reference: dict
    probe: dict
    verify: dict
    has_probe_section: bool
    base_dir: Path


def _checked(section: str, key: str, value):
    """``value`` when the schema allows it for [section] key, else ConfigError."""
    spec = _SCHEMA[section][key]
    items = value if spec.item is not spec.type else (value,)
    if not items or not all(spec.admits(v) for v in items):
        shown = ", ".join(map(str, value)) if isinstance(value, tuple) else value
        raise ConfigError(f"[{section}] {key} must be {spec.domain()}, got {shown!r}")
    return value


def _parse(section: str, key: str, raw: str):
    spec = _SCHEMA[section][key]
    try:
        if spec.item is spec.type:
            value = spec.type(raw.strip())
        else:
            value = tuple(spec.item(tok.strip()) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be {spec.domain()}, got {raw!r}") from None
    return _checked(section, key, value)


def _instance_params(kind: str, reg: str | None = None) -> dict:
    """[instance] key -> factory parameter, for each key that ``kind`` takes;
    a factory with a ``reg`` parameter also takes the parameters of the
    ``reg`` kind's class."""
    params = dict(inspect.signature(_INSTANCES[kind]).parameters)
    if "reg" in params and reg is not None:
        params.update(inspect.signature(_REG_KINDS[reg]).parameters)
    return {key: params[name] for key in _SCHEMA["instance"] if (name := _RENAMES.get(key, key)) in params}


def load_config(path) -> ExperimentConfig:
    """Read a config file and check it against the schema: unknown sections
    and keys, unparsable and out-of-range values, keys set where they do
    not apply and missing required keys raise ConfigError; keys with a
    default that the file leaves out get it."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from None

    data: dict[str, dict] = {name: {} for name in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]; expected one of {sorted(_SCHEMA)}")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; "
                    f"expected one of {sorted(_SCHEMA[section])}"
                )
            data[section][key] = _parse(section, key, raw)
    for section, keys in _SCHEMA.items():
        for key, spec in keys.items():
            if key not in data[section] and spec.default is not None and spec.default is not REQUIRED:
                data[section][key] = spec.default
    # set where its condition fails, a key would go unread, so it is an error
    for section, keys in _SCHEMA.items():
        for key, spec in keys.items():
            if (unmet := spec.unmet(data)) is not None:
                if parser.has_option(section, key):
                    on = data[unmet.when[0]].get(unmet.when[1])
                    raise ConfigError(f"[{section}] {key} applies only to {unmet.scope()}, not {on!r}")
            elif spec.default is REQUIRED and key not in data[section]:
                where = f" for {spec.scope()}" if spec.when else ""
                raise ConfigError(f"[{section}] {key} is required{where}")

    base_dir = path.parent.resolve()
    instance = data["instance"]
    takes = _instance_params(kind := instance["kind"], reg := instance.get("reg"))
    with_reg = f" with reg {reg!r}" if reg and "reg" in takes else ""
    for key, param in takes.items():
        if param.default is param.empty and key not in instance:
            raise ConfigError(f"[instance] {key} is required for [instance] kind = {kind}{with_reg}")
        if key.endswith("_file") and not (base_dir / instance[key]).is_file():
            raise ConfigError(f"[instance] {key} does not exist: {base_dir / instance[key]}")
    if extra := sorted(set(instance) - {"kind"} - set(takes)):
        raise ConfigError(f"[instance] keys {extra} do not apply to kind {kind!r}{with_reg}")

    exp = data.pop("experiment")
    if exp["kind"] in ("rate", "verify") and data["probe"]["kinds"] != ("ls-eb",):
        raise ConfigError(f"[probe] kinds must be ls-eb for kind {exp['kind']!r}, which probes only ls-eb")
    if exp["kind"] in ("verify", "probe-eb") and {"eta", "nu"} <= data["probe"].keys():
        if unread := [key for key in ("max_iters", "tolerance") if parser.has_option("solver", key)]:
            raise ConfigError(f"[solver] {unread[0]} goes unread: kind {exp['kind']!r} runs no scout "
                              "when [probe] eta and nu are both set")
    return ExperimentConfig(
        kind=exp["kind"], seed=exp["seed"], replications=exp["replications"],
        out_dir=exp["output_dir"], **data,
        has_probe_section=parser.has_section("probe"), base_dir=base_dir,
    )


def build_instance(cfg: ExperimentConfig) -> ProblemInstance:
    opts = dict(cfg.instance)
    factory = _INSTANCES[opts.pop("kind")]
    try:
        return factory(**{
            _RENAMES.get(k, k): cfg.base_dir / v if k.endswith("_file") else v
            for k, v in opts.items()
        })
    except ValueError as e:
        raise ConfigError(f"[instance] {e}") from None


def build_schedule(cfg: ExperimentConfig, p: ProblemInstance) -> BregmanSchedule:
    br = cfg.bregman
    if br["weights"] == "constant":
        q_lo = q_hi = br["q"]
    else:
        q_lo, q_hi = br["q_lo"], br["q_hi"]
        if not q_lo <= q_hi:
            raise ConfigError(f"[bregman] alternating weights need q_lo <= q_hi, got {q_lo}, {q_hi}")

    cap = step_cap(q_lo, p)
    rule = br["eps_rule"]
    if rule == "constant":
        eps = br["eps"]
    elif rule == "relative":
        if not np.isfinite(cap):
            raise ConfigError(
                "[bregman] eps_rule=relative needs a positive curvature bound; "
                "set eps_rule=constant for flat instances"
            )
        eps = br["eps_fraction"] * cap
    else:
        eps = (br["eps_lo"], br["eps_hi"])

    try:  # constant weights are q_lo = q_hi, and their period keeps its default 1
        sched = BregmanSchedule.alternating(q_lo, q_hi, br["period"], eps)
        validate_schedule(sched, p)
        return sched
    except ValueError as e:
        raise ConfigError(f"[bregman] {e}") from None


# ---------------------------------------------------------------------------
# reference values


@dataclass
class Reference:
    point: np.ndarray
    value: float
    source: str  # "known" | "best-found"


def resolve_reference_value(
    p: ProblemInstance, sched: BregmanSchedule, source: str = "auto",
    max_steps: int = 100_000, tolerance: float = 1e-12,
) -> Reference:
    """Known optimum verbatim, or a deterministic full-map iteration.

    The best-found path is :func:`~vbscd.solver.fixed_point`, whose refusals
    pass through (ValueError for a schedule over the step cap, SolverAbort
    for a step without sufficient decrease); one whose last move is still
    above ``tolerance`` warns on stderr.  The value is F at the last point.
    """
    if source not in ("auto", "known", "best-found"):
        raise ConfigError(f"reference source must be auto|known|best-found, got {source!r}")
    if source in ("auto", "known") and p.known_optimum is not None:
        x_star, f_star = p.known_optimum
        return Reference(np.asarray(x_star, dtype=float), float(f_star), "known")
    if source == "known":
        raise ConfigError("reference source 'known' but the instance has no known optimum")
    x, moved = fixed_point(p, sched, max_steps, tolerance)
    if moved > tolerance:
        print(f"warning: reference iteration stopped at max_steps = {max_steps} "
              f"with last move {moved:.3g} > tolerance {tolerance:.3g}", file=sys.stderr)
    return Reference(x, p.objective(x), "best-found")


# ---------------------------------------------------------------------------
# replications


@dataclass
class NearStartRow:
    replication: int
    max_dist: float
    stayed: bool


@dataclass
class ReplicationResult:
    instance: ProblemInstance
    schedule: BregmanSchedule
    reference: Reference
    trajectories: list
    mean_gap: np.ndarray
    var_gap: np.ndarray
    near_start: list | None = None


def aggregate_gaps(trajectories, f_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-iteration mean and population variance of the gap, truncated to
    the shortest replication."""
    length = min(len(t.records) for t in trajectories) + 1
    gaps = np.stack([t.gaps(f_bar)[:length] for t in trajectories])
    return gaps.mean(axis=0), gaps.var(axis=0)  # population variance (ddof=0)


def _setup(cfg: ExperimentConfig):
    """Instance, schedule and reference value of the configured experiment."""
    p = build_instance(cfg)
    sched = build_schedule(cfg, p)
    return p, sched, resolve_reference_value(p, sched, **cfg.reference)


def run_replications(cfg: ExperimentConfig) -> ReplicationResult:
    """Run R seeded trajectories of the configured experiment.

    Replication r uses the derived stream seed_r = seed XOR (r * golden).
    Replication 0 runs through :func:`run`; with R > 1, replications
    1..R-1 run in lockstep beside a shadow row of replication 0, which
    :func:`match_oracle` holds to replication 0's trajectory.  An aborted
    replication fails the whole experiment with the lowest such id.
    """
    p, sched, ref = _setup(cfg)
    x0_mode = cfg.solver["x0"]
    radius = cfg.solver["near_start_radius"]
    stay_radius = cfg.probe.get("eta", 4.0 * radius) / 2.0

    seeds = [derive_seed(cfg.seed, r) for r in range(cfg.replications)]
    x0s = [near_start_point(ref.point, radius, s) if x0_mode == "near-start" else None
           for s in seeds]
    sv = cfg.solver
    confs = [SolverConfig(sched, sv["max_iters"], sv["tolerance"], sv.get("check_period"), s)
             for s in seeds]
    try:
        trajectories = [run(p, confs[0], x0s[0])]
    except SolverAbort as e:
        raise SolverAbort(f"replication 0 failed: {e}") from e
    if cfg.replications > 1:
        rows = run_lockstep(p, confs, x0s)
        match_oracle(trajectories[0], rows[0], confs[0].tolerance)
        for r, traj in enumerate(rows[1:], 1):
            if isinstance(traj, SolverAbort):
                raise SolverAbort(f"replication {r} failed: {traj}") from traj
        trajectories += rows[1:]
    near_rows = []
    if x0_mode == "near-start":
        for r, traj in enumerate(trajectories):
            dmax = max(float(np.linalg.norm(S - ref.point, axis=1).max()) for S, _ in traj.iterates())
            near_rows.append(NearStartRow(r, dmax, dmax <= stay_radius))
    return ReplicationResult(
        p, sched, ref, trajectories, *aggregate_gaps(trajectories, ref.value),
        near_start=near_rows if x0_mode == "near-start" else None,
    )


def write_mean_csv(mean_gap, var_gap, path) -> None:
    write_csv(path, "k,mean_gap,var_gap", map(
        "%d,%.17g,%.17g".__mod__, zip(range(len(mean_gap)), mean_gap.tolist(), var_gap.tolist())))


def write_rate_csv(report: RateReport, n_replications: int, path) -> None:
    r = report
    write_csv(path, "factor,r_squared,window_start,window_stop,n_replications,label,beta_theory", [
        (r.factor, r.r_squared, r.window_start, r.window_stop, n_replications, r.label, r.beta_theory),
    ])


def write_near_start_csv(rows, path) -> None:
    write_csv(path, "replication,max_dist,stayed", map(astuple, rows))


def write_replication_outputs(res: ReplicationResult, out_dir) -> None:
    out = Path(out_dir)
    width = max(3, len(str(len(res.trajectories) - 1)))
    for r, traj in enumerate(res.trajectories):
        write_trajectory_csv(traj, out / f"traj_{r:0{width}d}.csv", f_bar=res.reference.value)
    write_mean_csv(res.mean_gap, res.var_gap, out / "mean_gap.csv")
    if res.near_start is not None:
        write_near_start_csv(res.near_start, out / "near_start.csv")


# ---------------------------------------------------------------------------
# probe and neighborhood assembly shared by rate / probe-eb / verify


def _neighborhood(cfg, p, sched, ref, trajectories=None):
    """[probe] eta and nu; those left out are sized from the iterates of
    ``trajectories``, by default of a short deterministic scout run that
    stops at [solver] tolerance; its abort reads ``scout run: ...``."""
    eta = cfg.probe.get("eta")
    nu = cfg.probe.get("nu")
    if eta is None or nu is None:
        if not trajectories:
            try:
                trajectories = [run(p, SolverConfig(
                    sched, min(cfg.solver["max_iters"], 50 * p.n_blocks), cfg.solver["tolerance"],
                    seed=derive_seed(cfg.seed, 0)))]
            except SolverAbort as e:
                raise SolverAbort(f"scout run: {e}") from e
        stacks = (pair for t in trajectories for pair in t.iterates())
        auto_eta, auto_nu = auto_neighborhood(p, sched, ref.point, stacks)
        eta = auto_eta if eta is None else eta
        nu = auto_nu if nu is None else nu
    return float(eta), float(nu)


def probed_constants(cfg, p, sched, ref, eta: float, nu: float, rng) -> tuple[ConstantsRecord, object]:
    """Constants of the schedule for the probed ls-eb constant, inflated by
    _EB_INFLATION so that sampling noise does not understate it."""
    est = probe_ls_eb(p, ref.point, eta, nu, cfg.probe["samples"], rng)
    constants = compute_constants(sched.m, sched.M, p.smooth.lipschitz, sched.eps_lo, sched.eps_hi,
                                  p.n_blocks, _EB_INFLATION * est.value, eta, nu)
    return constants, est


def hypothesis_points(p, x_bar, radius: float, window: float, count: int, rng):
    """Sample points satisfying the ball + level-window hypothesis.

    Uniform ball proposals concentrate near the shell in high dimension,
    where the objective usually overshoots a narrow level window, so start
    from a radius matched to the smooth curvature (still inside ``radius``)
    and halve it whenever acceptance stays empty.
    """
    r = min(radius, float(np.sqrt(window / max(p.smooth.lipschitz, 1.0))))
    for _ in range(16):
        try:
            pts, _, _ = sample_level_ball(
                p, x_bar, r, window, count, rng, max_draws=60 * count
            )
        except EmptyNeighborhoodError:
            pts = []
        if len(pts) >= min(20, count):
            return pts
        r /= 2.0
    raise EmptyNeighborhoodError(
        f"could not populate the hypothesis set B(x_bar; {radius}, {window})"
    )


# ---------------------------------------------------------------------------
# verification suite


def run_verification(cfg: ExperimentConfig) -> list[CheckRow]:
    """Numeric invariant suite for the configured instance.

    Groups: schedule admissibility, smooth-term calculus, penalty convexity
    and subdifferentials, kernel sandwich, prox optimality and oracle
    equivalence, exact index-expectation identities, per-block decrease,
    envelope chain, and the local proximity/level checks driven by a probed
    error-bound constant (inflated by 1.1 before use).  Each group is a pair
    of arrays (lhs, rhs) over its points, reported by :func:`worst_check`
    as the row of its smallest margin; a NaN anywhere fails the group.
    """
    p, sched, ref = _setup(cfg)
    n_points = cfg.verify["points"]
    n_prox = cfg.verify["prox_queries"]
    rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, _VERIFY_STREAM)))

    # constant: _setup has already refused a schedule over the step cap with
    # exit 2; deleting the row changes verify_report.csv, so it waits for a
    # revision of the benchmark
    rows = [make_check("schedule", "declared-bounds", 0.0, 0.0, 0.0)]

    spread = 3.0 * max(1.0, float(np.linalg.norm(ref.point)))
    X = np.array([sample_in_ball(ref.point, spread, rng) for _ in range(n_points)])
    Y = np.roll(X, -1, axis=0)  # each point paired with the next, cyclically
    D = Y - X
    d2 = np.sum(D**2, axis=1)
    q0, eps0 = sched.generator(0), sched.step(0)
    L, m, M, N = p.smooth.lipschitz, sched.m, sched.M, p.n_blocks

    # smooth term: descent lemma, and central differences of f along each
    # coordinate against the gradient, relative to 1 + max |grad|, from one
    # (n, n) perturbation stack x +- h I per point
    f = p.smooth
    descent = f.value_rows(Y) - f.value_rows(X) - np.sum(f.grad_rows(X) * D, axis=1)
    rows.append(worst_check("smooth", "descent-lemma", descent, 0.5 * L * d2, 1e-9))
    G = f.grad_rows(X[:25])
    hI = 1e-6 * np.eye(p.n)
    fd = np.array([(f.value_rows(x + hI) - f.value_rows(x - hI)) / 2e-6 for x in X[:25]])
    fd_err = np.max(np.abs(fd - G), axis=1) / (1.0 + np.max(np.abs(G), axis=1))
    rows.append(worst_check("smooth", "gradient-fd", fd_err, 0.0, 1e-5))

    # penalties: midpoint semi-convexity and subdifferential soundness
    h = 1e-6
    for label, reg in _distinct_penalties(p):
        ts = rng.standard_normal(2 * n_points) * 2.0
        convexified = lambda u: reg.value(u) + 0.5 * reg.rho * u * u
        t, s = ts[0::2], ts[1::2]
        rows.append(worst_check(
            "penalty", f"{label}-midpoint-convexity",
            convexified(0.5 * (t + s)), 0.5 * (convexified(t) + convexified(s)), 1e-9,
        ))
        t = ts[:50][np.abs(ts[:50]) > 1e-3]
        lo, hi = reg.subdiff(t)
        fd = (reg.value(t + h) - reg.value(t - h)) / (2 * h)
        err = np.maximum(hi - lo, np.abs(0.5 * (lo + hi) - fd) / (1.0 + np.abs(fd)))
        rows.append(worst_check("penalty", f"{label}-subdiff", err, 0.0, 1e-5))

    # kernel sandwich: m/2 |d|^2 <= D_h(y, x) <= M/2 |d|^2
    bregman = 0.5 * np.sum(q0 * D**2, axis=1)
    rows.append(worst_check(
        "kernel", "sandwich", -np.minimum(bregman - 0.5 * m * d2, 0.5 * M * d2 - bregman), 0.0, 1e-12,
    ))

    # prox layer: optimality certificate (the max-norm distance from 0 to
    # grad f(x) + dG(y) + (q/eps)(y - x) at y = T(x), 0 for an exact prox),
    # identities, decrease, envelope
    Xc = X[:200]
    Yc = full_prox_rows(p, q0, eps0, Xc)
    r = f.grad_rows(Xc) + (q0 / eps0) * (Yc - Xc)
    lo, hi = p.penalty_subdiff(Yc)
    rows.append(worst_check("prox", "optimality-certificate", np.max(np.abs(r + np.clip(-r, lo, hi)), axis=1),
                            0.0, 1e-8))
    identities = ("mean-point", "penalty-mixing", "squared-step")
    a = sufficient_decrease(m, sched.eps_hi, L)
    per_point = np.empty((n_points, 9))
    for j, x in enumerate(X):
        targets = coordinate_prox_all(p, q0, eps0, x)
        dev = expectation_identities(p, q0, eps0, x, targets)
        fx = p.objective(x)
        f_t = p.objective_rows(targets)
        sq = np.sum((x - targets) ** 2, axis=1)
        i = int(np.argmax(f_t - fx + a * sq))
        per_point[j] = (*(dev[k] for k in identities), f_t[i] - fx, -a * sq[i],
                        envelope_value(p, q0, eps0, x), fx, N * f_t.mean() - (N - 1) * fx, sq.mean())
    for k, name in enumerate(identities):
        rows.append(worst_check("expectation-identity", name, per_point[:, k], 0.0, 1e-12))
    decrease, bound, env, fx, mixed, sq_mean = per_point[:, 3:].T
    rows.append(worst_check("sufficient-decrease", "per-block", decrease, bound, 1e-9))
    rows.append(worst_check("envelope", "below-objective", env, fx, 1e-12))
    rows.append(worst_check(
        "envelope", "mean-decrease", mixed, env - 0.5 * N * (m / sched.eps_hi - L) * sq_mean, 1e-9,
    ))

    # scalar prox against the grid oracle
    for label, reg in _oracle_regs(p):
        oracle = GridProxOracle(reg)
        draws = rng.random((n_prox, 2))
        w = reg.rho + 0.1 + 4.9 * draws[:, 0]
        v = -5.0 + 10.0 * draws[:, 1]
        t_closed = scalar_prox(reg, w, v)
        t_grid, f_grid = np.array([oracle.query(wi, vi) for wi, vi in zip(w, v)]).T
        f_closed = reg.value(t_closed) + 0.5 * w * (t_closed - v) ** 2
        rows.append(worst_check("prox-oracle", f"{label}-argmin", np.abs(t_closed - t_grid), 0.0, 1e-3))
        rows.append(worst_check("prox-oracle", f"{label}-objective", f_closed - f_grid, 0.0, 1e-8))

    # local proximity checks behind a probed constant
    eta, nu = _neighborhood(cfg, p, sched, ref)
    constants, _ = probed_constants(cfg, p, sched, ref, eta, nu, rng)
    f_bar = p.objective(ref.point)
    hyp_pts = hypothesis_points(p, ref.point, *constants.hypothesis, min(n_points, 200), rng)
    prox_rows, dom_rows = [], []
    for x in hyp_pts:  # each point's one-block targets, F(x) and F(T_i x) evaluated once
        targets = coordinate_prox_all(p, q0, eps0, x)
        fx, f_t = p.objective(x), p.objective_rows(targets)
        if found := check_value_proximity(p, q0, eps0, x, fx, targets, f_t, ref.point, f_bar, constants):
            prox_rows.append(found)
            dom_rows += check_level_dominance(x, fx, targets, f_t, ref.point, f_bar, constants)
    if not prox_rows:
        rows.append(make_check("value-proximity", "hypothesis-met", 1.0, 0.0, 0.0))
    else:
        rows += [worst_row(same_name) for same_name in zip(*prox_rows)]
        rows.append(worst_row(dom_rows))
    return [r for r in rows if r is not None]


def _distinct_penalties(p: ProblemInstance):
    """(label, penalty) per distinct penalty of the instance.

    The label is the kind, plus the first block carrying it when a kind repeats."""
    kinds = [reg.kind for reg in p.penalties]
    return [
        (reg.kind if kinds.count(reg.kind) == 1 else f"{reg.kind}-block{p.penalty_of.index(j)}", reg)
        for j, reg in enumerate(p.penalties)
    ]


def _oracle_regs(p: ProblemInstance):
    """Instance penalties plus the canonical thresholding trio."""
    out = [(label, reg) for label, reg in _distinct_penalties(p) if reg.kind != "zero"]
    kinds = {reg.kind for _, reg in out}
    for reg in (L1Penalty(1.0), ScadPenalty(1.0, 3.7), McpPenalty(1.0, 3.0)):
        if reg.kind not in kinds:
            out.append((reg.kind, reg))
    return sorted(out, key=lambda item: item[0])


# ---------------------------------------------------------------------------
# experiment flows (one per CLI subcommand); each returns a process exit code


def _ended_below_reference(res: ReplicationResult) -> bool:
    """Print one line naming the first replication whose final F is below
    f_bar - gap_floor(f_bar): the reference is then no lower bound, and no
    gap or rate to it means anything.  True when there is one."""
    f_bar = res.reference.value
    for r, t in enumerate(res.trajectories):
        if t.final_objective < f_bar - gap_floor(f_bar):
            print(f"replication {r} ended below the reference value: "
                  f"F={t.final_objective!r} < f_bar={f_bar!r}")
            return True
    return False


def run_solve(cfg: ExperimentConfig, out_dir) -> int:
    res = run_replications(cfg)
    write_replication_outputs(res, out_dir)
    traj = res.trajectories[0]
    resid = traj.final_residual
    print(f"instance: {cfg.instance['kind']}  n={res.instance.n}  blocks={res.instance.n_blocks}")
    print(f"reference: {res.reference.source}  value={res.reference.value:.12g}")
    for r, t in enumerate(res.trajectories):
        print(
            f"replication {r}: {t.termination} after {len(t.records)} steps, "
            f"F={t.final_objective:.12g}, gap={t.final_objective - res.reference.value:.6g}"
        )
    if resid is not None:
        print(f"final residual (replication 0): {resid:.6g}")
    if res.near_start is not None:
        stayed = sum(row.stayed for row in res.near_start)
        print(f"near-start replications staying local: {stayed}/{len(res.near_start)}")
    print(f"wrote {len(res.trajectories)} trajectory file(s) to {out_dir}")
    return 1 if _ended_below_reference(res) else 0


def run_rate(cfg: ExperimentConfig, out_dir) -> int:
    """Replicated run + least-squares rate fit; contraction audit when a
    [probe] section supplies the neighborhood inputs."""
    res = run_replications(cfg)
    out = Path(out_dir)
    write_replication_outputs(res, out)
    if _ended_below_reference(res):
        return 1
    try:
        report = fit_linear_rate(res.mean_gap, f_bar=res.reference.value)
    except ValueError as e:
        print(f"rate fit failed: {e}")
        return 1
    report.label = "to known optimum" if res.reference.source == "known" else "to best-found value"

    audit = None
    if cfg.has_probe_section:
        p, sched, ref = res.instance, res.schedule, res.reference
        eta, nu = _neighborhood(cfg, p, sched, ref, res.trajectories[:10])
        rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, _PROBE_STREAM)))
        constants, est = probed_constants(cfg, p, sched, ref, eta, nu, rng)
        report.beta_theory = constants.beta
        audit = contraction_audit(p, sched, res.trajectories, ref.point, ref.value, constants)
        write_probe_csv([est], out / "eb_report.csv")

    write_rate_csv(report, len(res.trajectories), out / "rate_report.csv")
    print(f"reference: {res.reference.source}  value={res.reference.value:.12g}")
    print(
        f"fit window [{report.window_start}, {report.window_stop}): "
        f"factor={report.factor:.6f}  r_squared={report.r_squared:.6f}"
    )
    if report.beta_theory is not None:
        print(f"theoretical per-step factor bound: beta={report.beta_theory:.9f}")
    if audit is not None:
        print(
            f"contraction audit: checked={audit.checked} skipped={audit.skipped} "
            f"violations={audit.violations} worst_margin={audit.worst_margin:.3e}"
        )
        if not audit.ok:
            print("contraction audit FAILED")
            return 1
    print(f"wrote rate_report.csv and {len(res.trajectories)} trajectories to {out}")
    return 0 if report.contracting else 1


def run_probe_eb(cfg: ExperimentConfig, out_dir) -> int:
    p, sched, ref = _setup(cfg)
    q0, eps0 = sched.generator(0), sched.step(0)
    if "lt-eb" in cfg.probe["kinds"]:
        try:
            check_lt_eb_step(p, eps0)
        except ValueError as e:
            raise ConfigError(f"[probe] kinds = lt-eb at eps_0 = {eps0}: {e}") from None
    eta, nu = _neighborhood(cfg, p, sched, ref)
    samples = cfg.probe["samples"]
    rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, _PROBE_STREAM)))
    estimates = []
    for kind in cfg.probe["kinds"]:
        if kind == "ls-eb":
            est = probe_ls_eb(p, ref.point, eta, nu, samples, rng)
        elif kind == "kl":
            est = probe_kl(p, ref.point, eta, nu, samples, rng)
        elif kind == "bp-eb":
            est = probe_bp_eb(p, q0, eps0, ref.point, eta, nu, samples, rng)
        else:
            est = probe_lt_eb(p, eps0, ref.value + nu, eta, samples, rng, center=ref.point)
        estimates.append(est)
        print(
            f"{est.kind}: {est.constant_name}={est.value:.6f} "
            f"({est.samples} accepted samples, oracle={est.oracle})"
        )
    out = Path(out_dir)
    write_probe_csv(estimates, out / "eb_report.csv")
    print(f"wrote eb_report.csv to {out}")
    return 0


def run_verify(cfg: ExperimentConfig, out_dir) -> int:
    rows = run_verification(cfg)
    out = Path(out_dir)
    write_report_csv(rows, out / "verify_report.csv")
    n_pass = sum(r.passed for r in rows)
    for r in rows:
        mark = "pass" if r.passed else "FAIL"
        print(f"[{mark}] {r.check}/{r.name}: lhs={r.lhs:.6e} rhs={r.rhs:.6e} slack={r.slack:.3e}")
    print(f"{n_pass}/{len(rows)} checks passed; wrote verify_report.csv to {out}")
    return 0 if n_pass == len(rows) else 1


FLOWS.update({
    "solve": run_solve,
    "verify": run_verify,
    "rate": run_rate,
    "probe-eb": run_probe_eb,
})


def run_experiment(config_path, subcommand: str, seed=None, out_dir=None) -> int:
    """Load a config, apply CLI overrides, and dispatch on the subcommand; an
    output directory that is, or lies below, a file raises ConfigError.

    BLAS runs on as many threads as the calling process loaded numpy with:
    only the ``vbscd`` command line pins one thread, and at n ~ 1000 the
    outputs depend on the count."""
    cfg = load_config(config_path)
    if cfg.kind != subcommand:
        raise ConfigError(f"config declares kind={cfg.kind!r} but was run as {subcommand!r}")
    if seed is not None:
        cfg.seed = _checked("experiment", "seed", seed)
    out = out_dir if out_dir is not None else cfg.base_dir / cfg.out_dir
    held = next(d for d in (Path(out), *Path(out).parents) if d.exists())
    if not held.is_dir():
        raise ConfigError(f"output directory {out}: {held} exists and is not a directory")
    return FLOWS[subcommand](cfg, out)
