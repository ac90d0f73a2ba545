"""Config-driven command line: builds a model, runs a verification, reports.

Verbs: ``validate``, ``gibbs``, ``perturb``, ``entropy``, ``lts``,
``prop4``, ``ssb-probe``, ``remark2``.  Settings come from an INI-style
config file (section ``[run]`` for the run parameters, section ``[model]``
for model coefficients), with command-line flags taking precedence over
file values; ``_RUN_KEYS`` declares each ``[run]`` key with its flag, and
:class:`RunConfig` holds every default but :func:`lts_check`'s sample count
and decides, before the verb runs, the region the run reports on: the
probed region, the whole chain for ``validate`` and ``gibbs``, site 0 for
``remark2``; those three refuse ``--region``, and all verbs but ``lts``
refuse ``--samples``, from a flag or a config file, as a usage error.
Each ``run_<verb>`` returns its checks; :func:`main` writes them, or the
``error`` record of a breakdown, under that region's label with
:func:`reporting.emit_report` and takes the exit status from the same
list.  Reports are JSON lines with a fixed key order; identical
configuration, seed and BLAS thread count reproduce the report byte for
byte (``ssb-probe --length 8 --region 2,3`` reports ``grading_asymmetry``
7.3e-17 with one OpenBLAS thread and 4.0e-17 with two).

Exit status: 0 when every emitted check passes (or none are emitted), 1
when any check fails or a computation breaks down or runs out of memory
(the report then carries a diagnostic record and the exception class and
reason go to stderr), 2 on usage errors, an unwritable ``--out`` path and
a negative seed among them (checked before the verb runs).
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import car
from .entropy import (conditional_entropy, relative_entropy,
                      restricted_relative_entropy)
from .potentials import (MODELS, build_model, local_hamiltonian,
                         total_hamiltonian, validate_potential)
from .probes import (cluster_coefficient, grading_asymmetry,
                     purely_imaginary_check, scan_odd_correlations)
from .regions import MAX_SITES, Region
from .reporting import CheckRecord, emit_report
from .stability import lts_check, prop4_pipeline
from .states import (FactorState, gibbs_state, kms_residual, odd_direction,
                     perturbed_state, product_check, remark2_construct,
                     remark2_restriction_defect)


class UsageError(Exception):
    """Configuration problem; reported on stderr with exit status 2."""


# the verbs that probe a region given by --region; the others report on
# the whole chain, or on site 0 (remark2)
_PROBES = ("perturb", "entropy", "lts", "prop4", "ssb-probe")


@dataclass
class RunConfig:
    command: str
    lattice_size: int = 6
    model: str = "hopping"
    model_params: dict = field(default_factory=dict)
    beta: float = 1.0
    region_sites: tuple[int, ...] | None = None
    seed: int = 0
    output_path: str | None = None
    samples: int | None = None      # lts only; None keeps lts_check's
    # the region the run reports on, decided once from the fields above
    region: Region = field(init=False)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}; "
                             f"expected one of {', '.join(COMMANDS)}")
        if self.model not in MODELS:
            raise UsageError(f"unknown model {self.model!r}; "
                             f"known: {', '.join(sorted(MODELS))}")
        for key, value in [("beta", self.beta), *self.model_params.items()]:
            if not math.isfinite(value):
                raise UsageError(f"{key} must be finite, got {value}")
        if self.samples is not None and self.command != "lts":
            raise UsageError(f"command {self.command!r} takes no samples")
        if self.samples is not None and self.samples < 0:
            raise UsageError("samples must be nonnegative")
        if self.seed < 0:
            raise UsageError(f"seed must be nonnegative, got {self.seed}")
        if self.output_path is not None:
            # checked before the verb runs, so a run never ends unwritten
            folder = os.path.dirname(self.output_path) or "."
            if os.path.isdir(self.output_path):
                raise UsageError(f"output path {self.output_path!r} is a directory")
            if not os.access(folder, os.W_OK):
                raise UsageError(f"output directory {folder!r} is missing or "
                                 "not writable")
        try:
            given = Region.of(self.region_sites or (), self.lattice_size)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if self.command in _PROBES:
            if given.is_empty:
                raise UsageError(f"command {self.command!r} needs a region "
                                 "(--region \"i,j,...\")")
            self.region = given
        elif self.region_sites is not None:
            raise UsageError(f"command {self.command!r} takes no region")
        elif self.command == "remark2":
            self.region = Region((0,), self.lattice_size)
        else:
            self.region = Region.full(self.lattice_size)


def _parse_region_text(text: str) -> tuple[int, ...]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise UsageError(f"empty region {text!r}")
    try:
        return tuple(int(piece) for piece in items)
    except ValueError:
        raise UsageError(f"region must be a comma-separated site list, "
                         f"got {text!r}") from None


# each [run] key, which is also the name of its flag: the RunConfig field
# it sets and the parser of its text
_RUN_KEYS = {
    "command": ("command", str),
    "length": ("lattice_size", int),
    "model": ("model", str),
    "beta": ("beta", float),
    "region": ("region_sites", _parse_region_text),
    "seed": ("seed", int),
    "out": ("output_path", str),
    "samples": ("samples", int),
}


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise UsageError(f"config file {path!r} not found or unreadable")
        run = parser.items("run") if parser.has_section("run") else []
        model = parser.items("model") if parser.has_section("model") else None
    except configparser.Error as exc:
        # a repeated key, a missing section header, a bad interpolation
        reason = " ".join(str(exc).split())
        raise UsageError(f"config file {path!r} is malformed: {reason}") from None
    values: dict = {}
    for key, raw in run:
        if key not in _RUN_KEYS:
            raise UsageError(f"unknown config key {key!r} in [run]")
        values[key] = raw
    if model is not None:
        params = {}
        for key, raw in model:
            try:
                params[key] = float(raw)
            except ValueError:
                raise UsageError(f"model parameter {key!r} must be a number, "
                                 f"got {raw!r}") from None
        values["model_params"] = params
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge config-file values and flags (flags win) into a RunConfig;
    a setting given in neither keeps its ``RunConfig`` default."""
    values = _load_config_file(args.config) if args.config else {}
    merged = {"model_params": values.get("model_params", {})}
    for key, (name, parse) in _RUN_KEYS.items():
        raw = getattr(args, key)
        if raw is None:
            raw = values.get(key)
        if raw is None:
            continue
        try:
            merged[name] = parse(raw)
        except ValueError:
            raise UsageError(f"{key} must be of type {parse.__name__}, "
                             f"got {raw!r}") from None
    if "command" not in merged:
        raise UsageError("no command given (positional argument or "
                         "'command = ...' in the config file)")
    return RunConfig(**merged)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def _model(cfg: RunConfig):
    try:
        return build_model(cfg.model, cfg.lattice_size, **cfg.model_params)
    except TypeError:
        raise UsageError(f"model {cfg.model!r} does not accept parameters "
                         f"{sorted(cfg.model_params)}") from None


def _gibbs(cfg: RunConfig):
    potential = _model(cfg)
    return gibbs_state(total_hamiltonian(potential), cfg.beta), potential


def run_validate(cfg: RunConfig) -> list[CheckRecord]:
    return [CheckRecord(name, value, 1e-12, value <= 1e-12)
            for name, value in validate_potential(_model(cfg)).items()]


def run_gibbs(cfg: RunConfig) -> list[CheckRecord]:
    hamiltonian = total_hamiltonian(_model(cfg))
    state = gibbs_state(hamiltonian, cfg.beta)
    kms = kms_residual(state, hamiltonian, cfg.beta)
    even = car.grading_defect(state.density)
    return [
        CheckRecord("kms_residual", kms, 1e-10, kms <= 1e-10),
        CheckRecord("evenness", even, 1e-12, even <= 1e-12),
    ]


def run_perturb(cfg: RunConfig) -> list[CheckRecord]:
    region = cfg.region
    state, potential = _gibbs(cfg)
    phi = perturbed_state(potential, cfg.beta, region)
    product = product_check(phi, region)
    bound = 2.0 * abs(cfg.beta) * local_hamiltonian(potential, region).norm()
    forward = relative_entropy(state, phi)
    backward = relative_entropy(phi, state)
    slack = bound - max(forward, backward)
    even = car.grading_defect(phi.density)
    return [
        CheckRecord("decoupled_even", even, 1e-12, even <= 1e-12),
        CheckRecord("product_property", product, 1e-9, product <= 1e-9),
        CheckRecord("entropy_bound", slack, 1e-8, slack >= -1e-8),
    ]


def run_entropy(cfg: RunConfig) -> list[CheckRecord]:
    region = cfg.region
    state, potential = _gibbs(cfg)
    phi = perturbed_state(potential, cfg.beta, region)
    rel = relative_entropy(phi, state)
    sc = conditional_entropy(state, region)
    restricted = restricted_relative_entropy(phi, state, region.complement())
    mono = rel - restricted
    return [
        CheckRecord("relative_entropy", rel, 1e-12, rel >= -1e-12),
        CheckRecord("conditional_entropy", sc, 1e-12, sc <= 1e-12),
        CheckRecord("monotonicity", mono, 1e-10, mono >= -1e-10),
    ]


def run_lts(cfg: RunConfig) -> list[CheckRecord]:
    state, potential = _gibbs(cfg)
    given = {} if cfg.samples is None else {"samples": cfg.samples}
    report = lts_check(state, potential, cfg.region, cfg.beta, seed=cfg.seed,
                       **given)
    for note in report.notes:
        print(f"fermichain: lts: {note}", file=sys.stderr)
    return report.checks


def run_prop4(cfg: RunConfig) -> list[CheckRecord]:
    return prop4_pipeline(_model(cfg), cfg.beta, cfg.region).checks


def run_ssb_probe(cfg: RunConfig) -> list[CheckRecord]:
    region = cfg.region
    state, _ = _gibbs(cfg)
    asym = grading_asymmetry(state, region)
    checks = [CheckRecord("grading_asymmetry", asym, 1e-10, asym <= 1e-10)]

    outside = region.complement()
    if not outside.is_empty:
        observable = odd_direction(region)
        real_part = purely_imaginary_check(state, observable,
                                           odd_direction(outside))
        checks.append(CheckRecord("odd_correlation_real", real_part, 1e-12,
                                  real_part <= 1e-12))

        # clustering: correlations of a region observable should not grow
        # with distance; compare the nearest and farthest outside sites
        by_distance = sorted(
            outside.sites,
            key=lambda s: min(abs(s - r) for r in region.sites))
        near = Region.of([by_distance[0]], cfg.lattice_size)
        far = Region.of([by_distance[-1]], cfg.lattice_size)
        c_near = cluster_coefficient(state, observable, near)
        c_far = cluster_coefficient(state, observable, far)
        decay = c_far - c_near
        checks.append(CheckRecord("cluster_decay", decay, 1e-12,
                                  decay <= 1e-12))

        # the scan pairs odd elements of disjoint supports: the region and
        # its outside; cases are drawn one at a time, so only one is held,
        # and each random even state is held by its Gaussian factor
        rng = np.random.default_rng(cfg.seed)

        def cases():
            for _ in range(50):
                yield (FactorState.gaussian(cfg.lattice_size, rng),
                       car.random_element(region, rng, parity=1, hermitian=True),
                       car.random_element(outside, rng, parity=1, hermitian=True))

        violations = scan_odd_correlations(cases())["violations"]
        checks.append(CheckRecord("odd_scan", float(violations), 0.0,
                                  violations == 0))
    return checks


def run_remark2(cfg: RunConfig) -> list[CheckRecord]:
    state, _ = _gibbs(cfg)
    site0 = cfg.region
    vector_state = remark2_construct(state)
    defect = remark2_restriction_defect(state, vector_state)

    u = odd_direction(site0)
    odd_expectation = float(np.real(vector_state.expectation(u)))
    asym = grading_asymmetry(vector_state, site0)
    return [
        CheckRecord("restriction_residual", defect, 1e-10, defect <= 1e-10),
        CheckRecord("odd_expectation", odd_expectation, 1e-10,
                    abs(odd_expectation - 1.0) <= 1e-10),
        CheckRecord("vector_asymmetry", asym, 1e-10,
                    abs(asym - 1.0) <= 1e-10),
    ]


DISPATCH = {
    "validate": run_validate,
    "gibbs": run_gibbs,
    "perturb": run_perturb,
    "entropy": run_entropy,
    "lts": run_lts,
    "prop4": run_prop4,
    "ssb-probe": run_ssb_probe,
    "remark2": run_remark2,
}
COMMANDS = tuple(DISPATCH)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermichain",
        description="Finite fermion chains: models, states, and checks.")
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="what to run (may also come from the config file)")
    parser.add_argument("--config", metavar="PATH",
                        help="INI config file with [run] and [model] sections")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="seed for every randomized panel, at least 0 "
                        f"(default {RunConfig.seed})")
    parser.add_argument("--beta", type=float, metavar="X",
                        help=f"inverse temperature (default {RunConfig.beta})")
    parser.add_argument("--region", metavar="\"i,j,...\"",
                        help="probed sites, comma separated (not for "
                        "validate, gibbs or remark2)")
    parser.add_argument("--length", type=int, metavar="L",
                        help=f"chain length, at most {MAX_SITES} "
                        f"(default {RunConfig.lattice_size})")
    parser.add_argument("--model", metavar="NAME",
                        help="model preset: " + ", ".join(sorted(MODELS)))
    parser.add_argument("--samples", type=int, metavar="N",
                        help="competitor count, for lts only (default 200)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except UsageError as exc:
        print(f"fermichain: error: {exc}", file=sys.stderr)
        return 2

    try:
        checks = DISPATCH[cfg.command](cfg)
    except UsageError as exc:
        print(f"fermichain: error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, np.linalg.LinAlgError,
            MemoryError) as exc:
        # computation broke down (or ran out of memory): deterministic
        # diagnostic record in the report, the reason on stderr
        checks = [CheckRecord("error", 0.0, 0.0, False)]
        print(f"fermichain: error: {type(exc).__name__}: {exc}",
              file=sys.stderr)

    text = emit_report(checks, cfg.region.label(), cfg.beta, cfg.seed, cfg.output_path)
    if cfg.output_path is None:
        sys.stdout.write(text)
    passed = sum(1 for c in checks if c.passed)
    print(f"fermichain: {cfg.command}: {passed}/{len(checks)} checks passed",
          file=sys.stderr)
    return 0 if passed == len(checks) else 1
