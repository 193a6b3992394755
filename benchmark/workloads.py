"""The three workloads: how an op is staged, run through ``geominima.cli.main``
in-process, and checked.

An op is a list of CLI calls.  Staging (writing body files) and checking
happen outside the timed region; only the CLI calls are timed.  An op fails
when a call exits non-zero, raises, or (``compute``) reports a quantity as
``{"error": ...}``; an op that did not fail is checked by ``checks``.
"""

import contextlib
import hashlib
import io
import json
import os
import traceback
from pathlib import Path

import checks
import inputs


class Op:
    def __init__(self, calls, items):
        self.calls = calls      # [argv]
        self.items = items      # per call: what the check needs
        self.codes = []
        self.error = None
        self.log = ""


class Workload:
    name = ""
    grids = ()                  # (dimension, resolution) the CLI calls use
    traced_ops = 1              # fixed op count of a traced run

    def __init__(self, cli, out_dir):
        self.cli = cli
        self.dir = Path(out_dir) / self.name
        self.dir.mkdir(parents=True, exist_ok=True)

    def make_grids(self, grids_module):
        for n, resolution in self.grids:
            grids_module.default_grid(n, resolution)

    def _write(self, path, payload):
        with open(path, "w") as fh:
            json.dump(payload, fh)

    def run(self, op):
        """The timed part: every CLI call of the op, stdout and stderr kept."""
        sink = io.StringIO()
        op.codes = []
        op.error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in op.calls:
                try:
                    op.codes.append(self.cli.main(argv))
                except Exception:       # a raw error from the program fails the op
                    op.error = traceback.format_exc(limit=3)
                    break
        op.log = sink.getvalue()

    def outcome(self, op):
        """(failed, check messages) of a completed op."""
        if op.error is not None:
            return True, [op.error.strip().splitlines()[-1]]
        bad = [c for c in op.codes if c != 0]
        if bad:
            return True, [f"exit codes {op.codes}: {op.log.strip()[-300:]}"]
        return self.check(op)


class Verify(Workload):
    """``geominima verify`` on the default config, its default seed included.

    The run's seed is not passed on: with the seed taken from the run, some
    seeds end in false ``fail`` verdicts (a program fault, see CHANGES.md),
    so the op would fail on some seeds only."""

    name = "verify"
    grids = ((2, 2048), (3, 2048))
    WARMUP_CHECKS = "translation_balls,cyclic_monotone"

    def __init__(self, cli, out_dir, src_dir):
        super().__init__(cli, out_dir)
        self.digest_file = self.dir.parent / "verify-digests.json"
        self.src_hash = _tree_hash(src_dir)

    def make_op(self, seed, index):
        out = self.dir / f"report-{index}.json"
        return Op([["verify", "--out", str(out)]], [(out, checks.VERIFY_REQUIRED)])

    def make_warmup(self, seed):
        out = self.dir / "report-warmup.json"
        return Op([["verify", "--checks", self.WARMUP_CHECKS, "--out", str(out)]],
                  [(out, ("translation_balls", "cyclic_exact", "monotone_exact"))])

    def check(self, op):
        path, required = op.items[0]
        data = path.read_bytes()
        errs = checks.check_verify(json.loads(data), required)
        call = " ".join(op.calls[0][:-2])          # the command without --out
        errs += self._check_digest(call, hashlib.sha256(data).hexdigest())
        return False, errs

    def _check_digest(self, call, digest):
        """Reports are byte-identical for a fixed config: compare against the
        digest recorded by any earlier run of this program tree and call."""
        key = f"{self.src_hash}:{call}"
        try:
            with open(self.digest_file) as fh:
                known = json.load(fh)
        except (OSError, ValueError):
            known = {}
        if key in known:
            if known[key] != digest:
                return [f"report digest {digest} differs from {known[key]} of an earlier run"]
            return []
        known[key] = digest
        tmp = self.digest_file.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.digest_file)
        return []


class _BodyWorkload(Workload):
    """A workload whose op is one CLI call per generated body."""

    warmup_slot = 0

    def make_op(self, seed, index):
        return self._op(self.bodies(seed, index), str(index))

    def make_warmup(self, seed):
        # one call, on the bodies of an op index no timed op reaches
        return self._op([self.bodies(seed, 10 ** 6)[self.warmup_slot]], "warmup")

    def _op(self, slots, tag):
        calls, items = [], []
        for slot, body, arg in slots:
            body_path = self.dir / f"body-{tag}-{slot}.json"
            out = self.dir / f"out-{tag}-{slot}.json"
            self._write(body_path, body)
            calls.append(self.argv(body_path, arg, out))
            items.append((body, arg, out))
        return Op(calls, items)


class Estimate(_BodyWorkload):
    """``geominima estimate`` at the CLI defaults, one round of slots per op."""

    name = "estimate"
    grids = ((2, 4096), (3, 4096))
    traced_ops = 2
    warmup_slot = 5             # shifted-ball2
    bodies = staticmethod(inputs.estimate_bodies)

    @staticmethod
    def argv(body_path, p, out):
        return ["estimate", "--body", str(body_path), f"--p={p!r}", "--out", str(out)]

    def check(self, op):
        errs = []
        for body, p, out in op.items:
            with open(out) as fh:
                result = json.load(fh)
            errs += [f"{out.name}: {e}" for e in checks.check_estimate(body, p, result)]
        return False, errs


class Compute(_BodyWorkload):
    """``geominima compute``: one round over five bodies per op."""

    name = "compute"
    grids = ((2, 4096), (3, 4096))
    traced_ops = 4
    warmup_slot = 2             # hpoly2
    bodies = staticmethod(inputs.compute_bodies)

    @staticmethod
    def argv(body_path, quantities, out):
        orders = ",".join(repr(p) for p in inputs.COMPUTE_ORDERS)
        return ["compute", "--body", str(body_path), "--quantities", ",".join(quantities),
                f"--p={orders}", "--out", str(out)]

    def check(self, op):
        errs = []
        failed = False
        for body, quantities, out in op.items:
            with open(out) as fh:
                result = json.load(fh)
            bad = checks.error_entries(result)
            if bad:
                failed = True
                errs += [f"{out.name}: {q} reported an error: {result[q]['error']}" for q in bad]
                continue
            errs += [f"{out.name}: {e}" for e in
                     checks.check_compute(body, quantities, inputs.COMPUTE_ORDERS, result)]
        return failed, errs


def _tree_hash(src_dir):
    h = hashlib.sha256()
    for path in sorted(Path(src_dir).rglob("*.py")):
        h.update(str(path.relative_to(src_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def make(name, cli, out_dir, src_dir):
    if name == "verify":
        return Verify(cli, out_dir, src_dir)
    return {"estimate": Estimate, "compute": Compute}[name](cli, out_dir)
