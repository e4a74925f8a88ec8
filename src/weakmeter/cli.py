"""Command-line interface: bundled experiments, custom runs, sweeps, verification.

Exit codes: 0 success, 2 usage, 3 scenario parse/validation, 4 computation,
5 verification failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from importlib import resources

import numpy as np

from .errors import ScenarioError, ScenarioSyntaxError, WeakmeterError
from .hilbert import Ket
from .optics import PATH, POLARIZATION, STATE_IDS, hv_components, named_state
from .scenario import (
    ScenarioDoc,
    apply_override,
    load_yaml,
    parse_scenario,
    records_to_csv,
    records_to_jsonl,
    run_scenario,
)
from .verify import CHECK_NAMES, render_table, run_checks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_COMPUTE = 4
EXIT_VERIFY = 5

# convenience aliases for the most common overrides
_OVERRIDE_ALIASES = {"theta": "preselect.theta", "alpha": "postselect.alpha"}


def list_bundles() -> list[str]:
    root = resources.files("weakmeter").joinpath("scenarios")
    return sorted(path.name[: -len(".yaml")] for path in root.iterdir()
                  if path.name.endswith(".yaml"))


def load_bundle(name: str) -> str:
    path = resources.files("weakmeter").joinpath("scenarios").joinpath(f"{name}.yaml")
    if not path.is_file():
        raise ScenarioError(
            f"no bundled scenario {name!r}; available: {', '.join(list_bundles())}"
        )
    return path.read_text(encoding="utf-8")


def _read_scenario(ref: str) -> str:
    if ref.startswith("bundle:"):
        return load_bundle(ref[len("bundle:"):])
    try:
        with open(ref, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {ref!r}: {exc}") from exc


def _parse_set(pairs) -> list[tuple[str, object]]:
    out = []
    for pair in pairs or ():
        if "=" not in pair:
            raise ScenarioError(f"--set expects path=value, got {pair!r}")
        path, raw = pair.split("=", 1)
        path = _OVERRIDE_ALIASES.get(path, path)
        try:
            out.append((path, load_yaml(raw, path)))
        except ScenarioSyntaxError as exc:
            raise ScenarioSyntaxError(f"--set {path}: {exc}") from exc
    return out


def _load_doc(args) -> ScenarioDoc:
    doc = parse_scenario(_read_scenario(args.scenario))
    for path, value in _parse_set(args.set):
        doc = apply_override(doc, path, value)
    return doc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_list(args) -> int:
    for name in list_bundles():
        print(name)
    return EXIT_OK


def _run_and_emit(doc: ScenarioDoc, args) -> int:
    """Run ``doc``, write its rows, and exit 4 if no point has a pointer reading."""
    records = run_scenario(doc)
    if args.format == "csv":
        text = records_to_csv(records, sweep_paths=list(doc.sweep))
    else:
        text = records_to_jsonl(records)
    _emit(text, args.out)
    if records and all(rec.fit_value is None for rec in records):
        print("all sweep points failed; see the error column", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


def cmd_run(args) -> int:
    return _run_and_emit(_load_doc(args), args)


def cmd_sweep(args) -> int:
    path = _OVERRIDE_ALIASES.get(args.param, args.param)
    sweep = {path: {"start": args.start, "stop": args.stop, "steps": args.steps}}
    return _run_and_emit(apply_override(_load_doc(args), "sweep", sweep), args)


def cmd_verify(args) -> int:
    results = run_checks(only=args.only or None)
    table = render_table(results)
    _emit(table, args.out)
    if args.out:
        sys.stdout.write(table)
    return EXIT_VERIFY if any(r.status == "FAIL" for r in results) else EXIT_OK


def _basis_labels(ket: Ket) -> list[str]:
    """Product-basis labels of a ``named_state`` ket: path, orbital and polarization factors."""
    per_factor = []
    for label, dim in ket.signature.factors:
        if label == PATH:
            per_factor.append(("L", "R"))
        elif label == POLARIZATION:
            per_factor.append(("H", "V"))
        else:  # the orbital doublet or triplet
            per_factor.append(("va", "vb") if dim == 2 else ("m+1", "m0", "m-1"))
    labels = [""]
    for names in per_factor:
        labels = [f"{prefix},{name}" if prefix else name
                  for prefix in labels for name in names]
    return labels


def _to_hv_display(ket: Ket) -> np.ndarray:
    """Rotate the stored circular-polarization coordinates to H/V for display."""
    try:
        axis = ket.signature.axis_of(POLARIZATION)
    except WeakmeterError:
        return np.asarray(ket.amplitudes)
    shaped = np.asarray(ket.amplitudes).reshape(ket.signature.dims)
    moved = np.moveaxis(shaped, axis, -1)
    rotated = np.stack([hv_components(vec) for vec in moved.reshape(-1, 2)], axis=0)
    rotated = rotated.reshape(moved.shape)
    return np.moveaxis(rotated, -1, axis).reshape(-1)


def cmd_show_state(args) -> int:
    kwargs = {}
    if args.theta is not None:
        kwargs["theta"] = args.theta * np.pi
    if args.alpha is not None:
        kwargs["alpha"] = args.alpha * np.pi
    ket = named_state(args.state, orbital_dim=args.orbital_dim, **kwargs)
    amps = _to_hv_display(ket)
    print(f"state {args.state} on {ket.signature} (polarization shown in the H/V basis)")
    for label, amp in zip(_basis_labels(ket), amps):
        print(f"  ({label}): {amp.real:+.12f}{amp.imag:+.12f}j")
    return EXIT_OK


# options whose value may be any float, negative ones included
_NUMBER_OPTIONS = ("--theta", "--alpha", "--start", "--stop")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_negative_numbers(argv: list[str]) -> list[str]:
    """Rewrite ``--theta -1e-5`` as ``--theta=-1e-5`` for the number options.

    argparse takes a token that starts with '-' for an option unless it reads
    like -1 or -1.5, so -1e-5 and -inf would otherwise lose their option.
    """
    out, i = [], 0
    while i < len(argv):
        token = argv[i]
        if token == "--":  # everything after it is positional
            out.extend(argv[i:])
            break
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if token in _NUMBER_OPTIONS and value.startswith("-") and _is_float(value):
            out.append(f"{token}={value}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakmeter",
        description="Pre/post-selected weak-measurement pointer simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the bundled scenarios").set_defaults(func=cmd_list)

    def add_io(p):
        p.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="override a scenario field by dotted path "
                            "(theta/alpha are aliases for preselect.theta/postselect.alpha)")
        p.add_argument("--out", metavar="PATH", help="write output here (default stdout)")
        p.add_argument("--format", choices=("csv", "records"), default="csv")

    run_p = sub.add_parser("run", help="run a scenario (bundle:NAME or a file path)")
    run_p.add_argument("scenario")
    add_io(run_p)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a scenario sweeping one parameter")
    sweep_p.add_argument("scenario")
    sweep_p.add_argument("--param", required=True, help="dotted path of the swept field")
    sweep_p.add_argument("--start", type=float, required=True)
    sweep_p.add_argument("--stop", type=float, required=True)
    sweep_p.add_argument("--steps", type=int, required=True)
    add_io(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    verify_p = sub.add_parser("verify", help="run the built-in verification suite")
    verify_p.add_argument("--only", action="append", choices=CHECK_NAMES,
                          help="run only the named check (repeatable)")
    verify_p.add_argument("--out", metavar="PATH")
    verify_p.set_defaults(func=cmd_verify)

    show_p = sub.add_parser("show-state", help="print a named state's amplitudes")
    show_p.add_argument("state", choices=sorted(STATE_IDS))
    show_p.add_argument("--theta", type=float, help="angle in units of pi")
    show_p.add_argument("--alpha", type=float, help="angle in units of pi")
    show_p.add_argument("--orbital-dim", type=int, choices=(2, 3), default=2,
                        dest="orbital_dim")
    show_p.set_defaults(func=cmd_show_state)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """One ``warning: <message>`` line on stderr, without the source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_negative_numbers(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except WeakmeterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
