"""The command line's grammar and its parser.

``_OPTIONS`` is the one table of options and ``_COMMANDS`` lays them out per
subcommand.  :func:`parse` reads a command line by them, and help and usage
errors print them at a fixed width.  No ``fixedgain`` process imports
argparse, nor the gettext and locale argparse looks its messages up in.  The
grammar is a module of its own: a start that compiles the package from source
peaks lower compiling it and ``cli.py`` apart than compiling one module.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from types import SimpleNamespace


def _pole_list(text: str) -> tuple[complex, ...]:
    try:
        return tuple(complex(tok.strip()) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"cannot parse pole list {text!r}") from None


# flag -> (converter, metavar, default, help).  A flag with no converter stores
# True, a "{a,b}" metavar lists the choices, and the attribute is the flag's name.
_OPTIONS = {
    "--order": (int, "K", None, "filter order (number of tracked states)"),
    "--ts": (float, "SEC", 1.0, "sampling period in seconds (default 1.0)"),
    "--pole": (float, "P", None, "repeated real pole in [0, 1)"),
    "--memory": (float, "L", None, "memory length in samples; sets the pole to exp(-1/L)"),
    "--poles": (_pole_list, "LIST", None,
                "comma-separated pole list (complex ok, e.g. '0.5,0.4+0.2j,0.4-0.2j')"),
    "--lag": (float, "Q", 0.0, "read-out lag in samples (fractional/negative ok, default 0)"),
    "--deriv": (int, "D", 0, "derivative order of the output (0 = position)"),
    "--form": (str, "{kin,pcf,ocf,ccf,all}", "all", "which realizations to include (default all)"),
    "--wng": (None, "", False, "white-noise gain"),
    "--freq": (None, "", False, "frequency response on 1024 points over [0, 0.5] cycles/sample"),
    "--step": (int, "N", None, "unit step from a matched start through sample N: the state"
               " holds at (1, 0, ...), each row its read-out"),
    "--impulse": (None, "", False, "impulse response until truncation"),
    "--flatness": (None, "", False, "dc derivative targets vs. measurements"),
    "--input": (str, "PATH", None,
                "CSV of samples: one column (value) or two (n,value); '-' for stdin"),
    "--emit": (str, "{position,state}", "position",
               "emit the scalar output or the full kinematic state"),
    "--table": (int, "{1,2}", None, ""),
}
# command -> (help, layout).  The layout lists the command's flags: a list holds
# an optional flag, a tuple a group of which exactly one flag must be given.
_ABOUT = "Design and analyze fixed-gain tracking filters by pole placement."
_DESIGN = (("--order",), ["--ts"], ("--pole", "--memory", "--poles"), ["--lag"], ["--deriv"])
_COMMANDS = {
    "design": ("run a design, print the JSON document", (*_DESIGN, ["--form"])),
    "analyze": ("CSV response analyses of a design",
                (*_DESIGN, ("--wng", "--freq", "--step", "--impulse", "--flatness"))),
    "filter": ("run a design over CSV samples", (*_DESIGN, ("--input",), ["--emit"])),
    "tables": ("regenerate the benchmark tables", (("--table",),)),
}


def _shown(group) -> str:
    """A layout entry as a usage line shows it: [--ts SEC], --order K, (--wng | --step N)."""
    shown = " | ".join(f"{flag} {_OPTIONS[flag][1]}".rstrip() for flag in group)
    return f"[{shown}]" if isinstance(group, list) else f"({shown})" if group[1:] else shown


def _leave(command: str | None, error: str = ""):
    """Exit as argparse does: help on stdout and status 0, or the usage line
    and the error on stderr and status 2.  Nothing wraps to the terminal."""
    about, layout = _COMMANDS.get(command, (_ABOUT, ()))
    prog = f"fixedgain {command}" if command else "fixedgain"
    usage = f"usage: {prog} [-h] " + (" ".join(map(_shown, layout)) if command
                                      else "{" + ",".join(_COMMANDS) + "} ...")
    if error:
        text, out = f"{usage}\n{prog}: error: {error}\n", sys.stderr
    else:
        rows = [] if command else [(name, entry[0]) for name, entry in _COMMANDS.items()]
        rows += [("-h, --help", "show this help message and exit")] + [
            (_shown((flag,)), _OPTIONS[flag][3]) for group in layout for flag in group]
        width = max(len(left) for left, _ in rows) + 2
        text = f"{usage}\n\n{about}\n\n" + "".join(
            f"  {left:{width}}{right}".rstrip() + "\n" for left, right in rows)
        out = sys.stdout
    if out is not None:
        out.write(text)
    raise SystemExit(2 if error else 0)


def parse(argv: Sequence[str] | None = None) -> SimpleNamespace:
    """Parse a command line (``sys.argv[1:]`` when ``argv`` is None) into its
    ``command`` and one attribute per option of that command.  An option is
    named in full or by a prefix no other option has.  It takes its value
    after ``=`` or as the next token, whatever that token starts with; the
    last value given wins."""
    tokens = list(sys.argv[1:] if argv is None else argv)
    command = tokens.pop(0) if tokens[:1] and tokens[0] in _COMMANDS else None
    layout = _COMMANDS[command][1] if command else ()
    flags = ["-h", "--help", *(flag for group in layout for flag in group)]
    args, given, tokens = {flag[2:]: _OPTIONS[flag][2] for flag in flags[2:]}, set(), iter(tokens)
    for token in tokens:
        if not command and not token.startswith("-"):
            _leave(None, f"argument command: invalid choice: {token!r}")
        name, eq, text = token.partition("=") if token.startswith("--") else (token, "", "")
        found = [name] if name in flags else [
            flag for flag in flags if len(name) > 2 and flag.startswith(name)]
        if len(found) != 1:
            _leave(command, f"ambiguous option: {name} could match {', '.join(found)}" if found
                   else f"unrecognized arguments: {token}")
        if (flag := found[0]) in ("-h", "--help"):
            _leave(command)
        convert, metavar, _, _ = _OPTIONS[flag]
        group = next(g for g in layout if flag in g)
        try:
            if eq and convert is None:
                raise ValueError(f"ignored explicit argument {text!r}")
            if not eq and convert is not None and (text := next(tokens, None)) is None:
                raise ValueError("expected one argument")
            value = convert(text) if convert else True
            if metavar[:1] == "{" and str(value) not in metavar[1:-1].split(","):
                raise ValueError(f"invalid choice: {value!r} (choose from {metavar})")
            if clash := next((f for f in group if f != flag and f in given), None):
                raise ValueError(f"not allowed with argument {clash}")
        except ValueError as exc:  # the converters' messages name the value
            _leave(command, f"argument {flag}: {exc}")
        given.add(flag)
        args[flag[2:]] = value
    if not command:
        _leave(None, "the following arguments are required: command")
    if missing := [_shown(g) for g in layout if isinstance(g, tuple) and given.isdisjoint(g)]:
        _leave(command, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, **args)
