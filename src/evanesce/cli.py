"""Command-line front end: scenario flags, sweeps, CSV/JSON emission.

Units at this boundary are human-scale (GHz, degrees, mm, ns, cm, ps); the
library core is SI throughout.  Output is deterministic: identical
configuration gives byte-identical bytes, with the version header opt-in.

Exit codes: 0 success, 2 configuration error, 3 numerical failure or a
request that does not fit in memory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .core import (
    C_CODATA, C_VACUUM, PulseSpec, BeamSpec, Scenario, _require_array_size,
    critical_angle, pulse_spatial_extent, vacuum_wavelength, wavevectors,
)
from .delay import Channel, hartman_sweep, goos_hanchen_shift
from .energy import (
    evanescent_vs_free_energy, incident_flux, integrated_density, stored_energy,
    train_model,
)
from .scattering import (
    approx_transmission, attenuation_db_per_mm, gap_attenuation_db, scatter,
)
from .sweep import require_finite, to_csv
from .wavesynth import (
    beam_centroid_shift, front_causality_check, propagate_pulse,
    quasi_static_ratio,
)


class ConfigError(ValueError):
    pass


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=float, default=1.6, help="prism refractive index")
    p.add_argument("--f-ghz", type=float, default=9.15, help="carrier frequency [GHz]")
    p.add_argument("--theta-deg", type=float, default=45.0,
                   help="incidence angle from the normal [deg]")
    p.add_argument("--d-mm", type=float, default=40.0, help="gap width [mm]")
    p.add_argument("--polarization", choices=["TE", "TM"], default="TE")
    p.add_argument("--config", help="JSON file with the same keys; flags override it")
    p.add_argument("--codata-c", action="store_true",
                   help="use the exact SI speed of light instead of 3e8")
    p.add_argument("--with-version", action="store_true",
                   help="stamp outputs with the program version")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evanesce",
        description="Double-prism evanescent-gap calculations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options that more than one subcommand takes
    channel = {"choices": ["transmission", "reflection"], "default": "transmission"}
    fwhm_ns = {"type": float, "default": 16.0}

    p = sub.add_parser("attenuation", help="decay constant and transmissions")
    _add_common(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("hartman", help="delay/energy saturation sweep over d")
    _add_common(p)
    p.add_argument("--d-min-mm", type=float, default=5.0)
    p.add_argument("--d-max-mm", type=float, default=50.0)
    p.add_argument("--d-steps", type=int, default=10)
    p.add_argument("--out", help="CSV path (default stdout)")

    p = sub.add_parser("pulse", help="propagate a pulse, report its envelope")
    _add_common(p)
    p.add_argument("--fwhm-ns", **fwhm_ns)
    p.add_argument("--channel", **channel)
    p.add_argument("--out", help="CSV path for the series")

    p = sub.add_parser("beam", help="angular-spectrum beam centroid shift")
    _add_common(p)
    p.add_argument("--waist-wavelengths", type=float, default=20.0)
    p.add_argument("--channel", **channel)
    p.add_argument("--out", help="CSV path for the profile")

    p = sub.add_parser("energy", help="stored energy and dwell time")
    _add_common(p)
    p.add_argument("--train-first-car", type=int,
                   help="include the train toy model with this first-car count")
    p.add_argument("--train-cars", type=int, default=5)

    p = sub.add_parser("causality", help="front leakage of a truncated pulse")
    _add_common(p)
    p.add_argument("--fwhm-ns", **fwhm_ns)
    p.add_argument("--front-sigmas", type=float, default=3.0,
                   help="front position before the peak, in envelope sigmas")
    p.add_argument("--rise-ns", type=float,
                   help="smooth turn-on duration (default fwhm/16)")
    return parser


def _config_value(action: argparse.Action, key: str, value):
    """Check a JSON config value as its flag's parser would; return it typed."""
    kind = bool if action.nargs == 0 else action.type or str
    allowed = (int, float) if kind is float else kind
    if (isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed)
            or value not in (action.choices or [value])):
        choices = f" in {list(action.choices)}" if action.choices else ""
        raise ConfigError(
            f"config key {key!r} must be {kind.__name__}{choices}, got {value!r}")
    return kind(value)


def _with_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                 argv: list[str] | None) -> argparse.Namespace:
    """Parse ``argv`` again with the checked values of ``args.config`` as the
    subcommand's defaults, so that every flag given explicitly wins."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError("config file must hold a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub_parser = sub.choices[args.command]
    actions = {a.dest: a for a in sub_parser._actions}
    for key, value in loaded.items():
        if key == "config" or key not in actions or not hasattr(args, key):
            raise ConfigError(f"unknown config key {key!r}")
        sub_parser.set_defaults(**{key: _config_value(actions[key], key, value)})
    return parser.parse_args(argv)


def _json(payload: dict, args: argparse.Namespace) -> str:
    """The payload as RFC 8259 JSON, which has no NaN or Infinity: a
    non-finite value raises ``ValueError`` (exit 2)."""
    if args.with_version:
        payload = {"version": __version__, **payload}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _version_line(args: argparse.Namespace) -> str:
    """The ``# evanesce <version>`` first line of text and CSV output, or ""."""
    return f"# evanesce {__version__}\n" if args.with_version else ""


def _write_csv(text: str, args: argparse.Namespace) -> None:
    text = _version_line(args) + text
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_with_out(payload: dict, args: argparse.Namespace,
                   columns: tuple[str, str], arrays) -> int:
    """JSON checked, then the columns ``arrays()`` returns to ``--out``, then
    stdout: a failed run writes nothing, and a run without ``--out`` forms
    no columns."""
    text = _json(payload, args)
    if args.out is not None:
        _write_csv(to_csv(columns, arrays(), "%r"), args)
    sys.stdout.write(text)
    return 0


def cmd_attenuation(args: argparse.Namespace, scenario: Scenario) -> int:
    exact = scatter(scenario)
    report = {
        "kappa_per_m": wavevectors(scenario).kappa,
        "attenuation_db_per_mm": attenuation_db_per_mm(scenario),
        "gap_attenuation_db": gap_attenuation_db(scenario),
        "transmission_approx": approx_transmission(scenario),
        "transmission_exact": abs(exact.t) ** 2,
        "wavelength_cm": vacuum_wavelength(scenario.f, scenario.c) * 100,
        "critical_angle_deg": math.degrees(critical_angle(scenario.n)),
    }
    if args.json:
        sys.stdout.write(_json(report, args))
    else:
        require_finite(report.keys(), report.values())
        sys.stdout.write(_version_line(args))
        for key, value in report.items():
            sys.stdout.write(f"{key} = {value!r}\n")
    return 0


def cmd_hartman(args: argparse.Namespace, scenario: Scenario) -> int:
    if not (0 < args.d_min_mm < args.d_max_mm):
        raise ConfigError("need 0 < d-min-mm < d-max-mm")
    if args.d_steps < 2:
        raise ConfigError("need at least 2 sweep points")
    # one array, sized before it is built: too many widths fail at once
    _require_array_size(args.d_steps, "gap widths")
    d = (args.d_min_mm + np.arange(args.d_steps, dtype=float)
         * (args.d_max_mm - args.d_min_mm) / (args.d_steps - 1)) * 1e-3
    bd = hartman_sweep(scenario, d)
    # stored energy is per-area energy times the GH shift s already swept;
    # s cancels from the dwell time, and the flux is independent of d
    flux = incident_flux(scenario)
    per_area = np.array([integrated_density(replace(scenario, d=dv))
                         for dv in d.tolist()])
    s = bd.gh_shift
    # normalized to the widest gap as a product of ratios, each of order
    # one, so that nothing underflows at the narrowest gaps
    u_norm = (per_area / per_area[-1]) * (s / s[-1])
    _write_csv(to_csv(
        ("d_mm", "tau0_ps", "s_cm", "tau_g_ps", "dwell_ps", "U_norm"),
        (d * 1e3, bd.phase_delay * 1e12, s * 1e2, bd.group_delay * 1e12,
         per_area / flux * 1e12, u_norm), "%.6g"), args)
    return 0


def cmd_pulse(args: argparse.Namespace, scenario: Scenario) -> int:
    pulse = PulseSpec(fwhm=args.fwhm_ns * 1e-9, carrier=scenario.f)
    series, report = propagate_pulse(scenario, pulse, Channel(args.channel))
    ratio = quasi_static_ratio(scenario, pulse)
    return _emit_with_out({
        "channel": series.channel.value,
        "fwhm_ns": report.fwhm * 1e9,
        "peak_delay_ps": report.peak_time * 1e12,
        "shape_correlation": report.shape_correlation,
        "peak_amplitude": report.peak_amplitude,
        "peak_intensity_ratio": report.peak_amplitude ** 2,
        "spatial_extent_m": pulse_spatial_extent(pulse, scenario.c),
        # c*fwhm/d is +inf at d = 0 and past the double range at a tiny
        # gap, which RFC 8259 JSON cannot hold
        "quasi_static_ratio": None if math.isinf(ratio) else ratio,
        "quasi_static": ratio > 10,
    }, args, ("t_ns", "field"),
        lambda: (series.t_samples * 1e9, series.values))


def cmd_beam(args: argparse.Namespace, scenario: Scenario) -> int:
    lam = vacuum_wavelength(scenario.f, scenario.c)
    beam = BeamSpec(waist=args.waist_wavelengths * lam)
    channel = Channel(args.channel)
    profile = beam_centroid_shift(scenario, beam, channel)
    return _emit_with_out({
        "channel": channel.value,
        "waist_wavelengths": args.waist_wavelengths,
        # the input beam is centred on x = 0: its centroid is the shift
        "centroid_cm": profile.centroid_shift * 100,
        "centroid_shift_cm": profile.centroid_shift * 100,
        "gh_shift_cm": goos_hanchen_shift(scenario, channel) * 100,
    }, args, ("x_cm", "intensity"),
        lambda: (profile.x_samples * 100, profile.intensity))


def cmd_energy(args: argparse.Namespace, scenario: Scenario) -> int:
    budget = stored_energy(scenario)
    payload = {
        "stored": budget.stored,
        "incident_power": budget.incident_power,
        "dwell_time_ps": budget.dwell_time * 1e12,
        "evanescent_to_free_ratio": (
            evanescent_vs_free_energy(scenario) if scenario.d > 0 else None
        ),
    }
    if args.train_first_car is not None:
        total, proxy = train_model(args.train_first_car, args.train_cars)
        payload["train"] = {
            "first_car": args.train_first_car,
            "cars": args.train_cars,
            "total_passengers": total,
            "delay_proxy": proxy,
            "bound": 2 * args.train_first_car,
        }
    sys.stdout.write(_json(payload, args))
    return 0


def cmd_causality(args: argparse.Namespace, scenario: Scenario) -> int:
    plain = PulseSpec(fwhm=args.fwhm_ns * 1e-9, carrier=scenario.f)
    pulse = replace(
        plain,
        front_time=-args.front_sigmas * plain.sigma,
        front_rise=args.rise_ns * 1e-9 if args.rise_ns is not None else None,
    )
    leak = front_causality_check(scenario, pulse, dt_factor=16)
    leak_fine = front_causality_check(scenario, pulse, dt_factor=32)
    sys.stdout.write(_json({
        "leakage_ratio": leak,
        "leakage_ratio_refined": leak_fine,
        "self_convergent": bool(leak_fine <= 5 * leak + 1e-9),
        "front_time_ns": pulse.front_time * 1e9,
        "front_arrival_ns": (pulse.front_time + scenario.d / scenario.c) * 1e9,
        "rise_ns": pulse.rise * 1e9,
    }, args))
    return 0


_COMMANDS = {
    "attenuation": cmd_attenuation,
    "hartman": cmd_hartman,
    "pulse": cmd_pulse,
    "beam": cmd_beam,
    "energy": cmd_energy,
    "causality": cmd_causality,
}

def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args = _with_config(parser, args, argv)
        scenario = Scenario(
            n=args.n,
            f=args.f_ghz * 1e9,
            theta=math.radians(args.theta_deg),
            d=args.d_mm * 1e-3,
            polarization=args.polarization,
            c=C_CODATA if args.codata_c else C_VACUUM,
        )
        scenario.require_tunneling()
        return _COMMANDS[args.command](args, scenario)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ArithmeticError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"error: {args.command} request does not fit in "
                         f"memory{detail}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
