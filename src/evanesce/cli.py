"""Command-line front end: scenario flags, sweeps, CSV/JSON emission.

Units at this boundary are human-scale (GHz, degrees, mm, ns, cm, ps); the
library core is SI throughout.  Output is deterministic: identical
configuration gives byte-identical bytes, with the version header opt-in.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
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
    C_CODATA, PulseSpec, BeamSpec, RegimeError, Scenario, critical_angle,
    pulse_spatial_extent, vacuum_wavelength, wavevectors,
)
from .delay import (
    Channel, DegenerateChannelError, hartman_sweep, goos_hanchen_shift,
)
from .energy import (
    evanescent_vs_free_energy, incident_flux, integrated_density, stored_energy,
    train_model,
)
from .scattering import (
    approx_transmission, attenuation_db_per_mm, gap_attenuation_db, scatter,
)
from .sweep import SweepTable
from .wavesynth import (
    GridGuardError, beam_centroid_shift, front_causality_check,
    is_quasi_static, propagate_pulse, quasi_static_ratio,
)

_DEFAULTS = {
    "n": 1.6,
    "f_ghz": 9.15,
    "theta_deg": 45.0,
    "d_mm": 40.0,
    "polarization": "TE",
    "fwhm_ns": 16.0,
    "channel": "transmission",
    "waist_wavelengths": 20.0,
    "d_min_mm": 5.0,
    "d_max_mm": 50.0,
    "d_steps": 10,
    "front_sigmas": 3.0,
}


class ConfigError(ValueError):
    pass


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=float, default=None, help="prism refractive index")
    p.add_argument("--f-ghz", type=float, default=None, help="carrier frequency [GHz]")
    p.add_argument("--theta-deg", type=float, default=None,
                   help="incidence angle from the normal [deg]")
    p.add_argument("--d-mm", type=float, default=None, help="gap width [mm]")
    p.add_argument("--polarization", choices=["TE", "TM"], default=None)
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with the same keys; flags override it")
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

    p = sub.add_parser("attenuation", help="decay constant and transmissions")
    _add_common(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("hartman", help="delay/energy saturation sweep over d")
    _add_common(p)
    p.add_argument("--d-min-mm", type=float, default=None)
    p.add_argument("--d-max-mm", type=float, default=None)
    p.add_argument("--d-steps", type=int, default=None)
    p.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")

    p = sub.add_parser("pulse", help="propagate a pulse, report its envelope")
    _add_common(p)
    p.add_argument("--fwhm-ns", type=float, default=None)
    p.add_argument("--channel", choices=["transmission", "reflection"], default=None)
    p.add_argument("--out", type=str, default=None, help="CSV path for the series")

    p = sub.add_parser("beam", help="angular-spectrum beam centroid shift")
    _add_common(p)
    p.add_argument("--waist-wavelengths", type=float, default=None)
    p.add_argument("--channel", choices=["transmission", "reflection"], default=None)
    p.add_argument("--out", type=str, default=None, help="CSV path for the profile")

    p = sub.add_parser("energy", help="stored energy and dwell time")
    _add_common(p)
    p.add_argument("--train-first-car", type=int, default=None,
                   help="include the train toy model with this first-car count")
    p.add_argument("--train-cars", type=int, default=None)

    p = sub.add_parser("causality", help="front leakage of a truncated pulse")
    _add_common(p)
    p.add_argument("--fwhm-ns", type=float, default=None)
    p.add_argument("--front-sigmas", type=float, default=None,
                   help="front position before the peak, in envelope sigmas")
    p.add_argument("--rise-ns", type=float, default=None,
                   help="smooth turn-on duration (default fwhm/16)")
    return parser


def _command_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    """The argparse actions of one subcommand, keyed by destination."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


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


def _merge_config(args: argparse.Namespace, actions: dict) -> None:
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in actions or not hasattr(args, key):
                raise ConfigError(f"unknown config key {key!r}")
            value = _config_value(actions[key], key, value)
            if getattr(args, key) in (None, False):
                setattr(args, key, value)
    for key, value in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _scenario(args: argparse.Namespace) -> Scenario:
    kwargs = {}
    if args.codata_c:
        kwargs["c"] = C_CODATA
    return Scenario(
        n=args.n,
        f=args.f_ghz * 1e9,
        theta=math.radians(args.theta_deg),
        d=args.d_mm * 1e-3,
        polarization=args.polarization,
        **kwargs,
    )


def _reject_below_critical(scenario: Scenario) -> None:
    if not scenario.is_tunneling:
        crit = math.degrees(critical_angle(scenario.n))
        raise ConfigError(
            f"theta {math.degrees(scenario.theta):.2f} deg is below the "
            f"critical angle {crit:.2f} deg for n={scenario.n}; "
            "this command needs the evanescent regime"
        )


def _channel(args: argparse.Namespace) -> Channel:
    return Channel(args.channel)


def _emit_json(payload: dict, args: argparse.Namespace) -> None:
    if args.with_version:
        payload = {"version": __version__, **payload}
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _write_csv(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_header_lines(args: argparse.Namespace) -> tuple[str, ...]:
    return (f"evanesce {__version__}",) if args.with_version else ()


def cmd_attenuation(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    _reject_below_critical(scenario)
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
        _emit_json(report, args)
    else:
        if args.with_version:
            sys.stdout.write(f"# evanesce {__version__}\n")
        for key, value in report.items():
            sys.stdout.write(f"{key} = {value!r}\n")
    return 0


def cmd_hartman(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    _reject_below_critical(scenario)
    if not (0 < args.d_min_mm < args.d_max_mm):
        raise ConfigError("need 0 < d-min-mm < d-max-mm")
    if args.d_steps < 2:
        raise ConfigError("need at least 2 sweep points")
    d_values = [
        (args.d_min_mm + i * (args.d_max_mm - args.d_min_mm) / (args.d_steps - 1))
        * 1e-3
        for i in range(args.d_steps)
    ]
    table = hartman_sweep(scenario, d_values, Channel.TRANSMISSION)
    # stored energy is per-area energy times the GH shift s already in the
    # table; s cancels from the dwell time, and the flux is independent of d
    flux = incident_flux(scenario, scenario.omega, wavevectors(scenario).k_x)
    per_area = [integrated_density(replace(scenario, d=dv)) for dv in d_values]
    u_ref = per_area[-1] * table.rows[-1][2]
    rows = tuple(
        (
            row[0] * 1e3,            # d_mm
            row[1] * 1e12,           # tau0_ps
            row[2] * 1e2,            # s_cm
            row[3] * 1e12,           # tau_g_ps
            u / flux * 1e12,         # dwell_ps
            u * row[2] / u_ref,      # U_norm
        )
        for row, u in zip(table.rows, per_area)
    )
    out = SweepTable(
        columns=("d_mm", "tau0_ps", "s_cm", "tau_g_ps", "dwell_ps", "U_norm"),
        rows=rows,
    )
    _write_csv(out.to_csv(fmt="%.6g", header_lines=_csv_header_lines(args)),
               args.out)
    return 0


def cmd_pulse(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    _reject_below_critical(scenario)
    pulse = PulseSpec(fwhm=args.fwhm_ns * 1e-9, carrier=scenario.f)
    series, report = propagate_pulse(scenario, pulse, _channel(args))
    table = SweepTable(
        columns=("t_ns", "field"),
        rows=tuple((tv * 1e9, fv) for tv, fv in
                   zip(series.t_samples.tolist(), series.values.tolist())),
    )
    if args.out is not None:
        _write_csv(table.to_csv(header_lines=_csv_header_lines(args)), args.out)
    _emit_json({
        "channel": series.channel.value,
        "fwhm_ns": report.fwhm * 1e9,
        "peak_delay_ps": report.peak_time * 1e12,
        "shape_correlation": report.shape_correlation,
        "peak_amplitude": report.peak_amplitude,
        "peak_intensity_ratio": report.peak_amplitude ** 2,
        "spatial_extent_m": pulse_spatial_extent(pulse, scenario.c),
        "quasi_static_ratio": quasi_static_ratio(scenario, pulse),
        "quasi_static": is_quasi_static(scenario, pulse),
    }, args)
    return 0


def cmd_beam(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    _reject_below_critical(scenario)
    lam = vacuum_wavelength(scenario.f, scenario.c)
    beam = BeamSpec(waist=args.waist_wavelengths * lam)
    channel = _channel(args)
    profile = beam_centroid_shift(scenario, beam, channel)
    if args.out is not None:
        table = SweepTable(
            columns=("x_cm", "intensity"),
            rows=tuple((xv * 100, iv) for xv, iv in
                       zip(profile.x_samples.tolist(), profile.intensity.tolist())),
        )
        _write_csv(table.to_csv(header_lines=_csv_header_lines(args)), args.out)
    _emit_json({
        "channel": channel.value,
        "waist_wavelengths": args.waist_wavelengths,
        "centroid_cm": profile.centroid * 100,
        "centroid_shift_cm": profile.centroid_shift * 100,
        "gh_shift_cm": (goos_hanchen_shift(scenario, channel) * 100
                        if scenario.d > 0 else 0.0),
    }, args)
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    _reject_below_critical(scenario)
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
        cars = args.train_cars if args.train_cars is not None else 5
        total, proxy = train_model(args.train_first_car, cars)
        payload["train"] = {
            "first_car": args.train_first_car,
            "cars": cars,
            "total_passengers": total,
            "delay_proxy": proxy,
            "bound": 2 * args.train_first_car,
        }
    _emit_json(payload, args)
    return 0


def cmd_causality(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    _reject_below_critical(scenario)
    fwhm = args.fwhm_ns * 1e-9
    sigma = fwhm / (2 * math.sqrt(math.log(2)))
    pulse = PulseSpec(
        fwhm=fwhm,
        carrier=scenario.f,
        front_time=-args.front_sigmas * sigma,
        front_rise=args.rise_ns * 1e-9 if args.rise_ns is not None else None,
    )
    leak = front_causality_check(scenario, pulse, dt_factor=16)
    leak_fine = front_causality_check(scenario, pulse, dt_factor=32)
    _emit_json({
        "leakage_ratio": leak,
        "leakage_ratio_refined": leak_fine,
        "self_convergent": bool(leak_fine <= 5 * leak + 1e-9),
        "front_time_ns": pulse.front_time * 1e9,
        "front_arrival_ns": (pulse.front_time + scenario.d / scenario.c) * 1e9,
        "rise_ns": pulse.rise * 1e9,
    }, args)
    return 0


_COMMANDS = {
    "attenuation": cmd_attenuation,
    "hartman": cmd_hartman,
    "pulse": cmd_pulse,
    "beam": cmd_beam,
    "energy": cmd_energy,
    "causality": cmd_causality,
}

_CONFIG_ERRORS = (ConfigError, ValueError, RegimeError, DegenerateChannelError,
                  GridGuardError)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args, _command_actions(parser, args.command))
        return _COMMANDS[args.command](args)
    except _CONFIG_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
