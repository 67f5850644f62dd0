"""Outside-in layer tracer: times calls into mira's modules from outside.

The program under test stays untouched.  ``Tracer.install`` replaces each
traced function with a timing wrapper at every place it is looked up: a
module-level function is replaced in every ``mira`` module that holds it
(``sign_threshold`` imports ``commit``, ``merkle_root`` and ``shamir_expand``
by name, for example), a method on its class.  ``uninstall`` puts every
original object back.

While an operation is open (``with tracer.operation(kind, set_name)``) each
wrapped call pushes a frame; on return its self time (duration minus the
time of wrapped calls nested in it) is added to the operation's tally under
its (layer, quantity).  Hot leaves - hash/XOF calls and field arithmetic,
up to ~10^5 per operation - are only tallied; every other call is also
kept as a span (name, start, end, id, parent, operation id) in memory and
written out by ``write_spans``.  Counters that do not depend on the
machine (hash calls by role byte, bytes absorbed and squeezed, GEMM
multiply-accumulates, operand builds) are counted at the same boundaries.

Targets that a later version of the program no longer has are skipped and
listed in ``missing``, so the tracer keeps working across refactors; the
benchmark prints that list, since a skipped target's metrics read 0.
"""

import contextlib
import functools
import json
import sys
import time

# role byte -> counter class (see mira.hashing for the role table)
_ROLE_CLASS = {0x00: "commit", 0x01: "h", 0x02: "h", 0x03: "h", 0x04: "h",
               0x05: "merkle", 0x06: "tree", 0x07: "leaf",
               0x08: "challenge", 0x09: "challenge"}

_SHAPE_ERRORS = (AttributeError, IndexError, TypeError, ValueError)


def _bump(counters, key, n=1):
    counters[key] = counters.get(key, 0) + n


def _count_hash(counters, args, kwargs):
    # HashSuite.hash(self, role, *parts) / HashSuite.xof(self, role, *parts)
    try:
        _bump(counters, "calls." + _ROLE_CLASS.get(args[1], "other"))
        _bump(counters, "bytes_in", 1 + sum(len(p) for p in args[2:]))
    except _SHAPE_ERRORS:
        pass


def _count_xof_digest(counters, args, kwargs):
    # HashSuite.xof_digest(self, role, payload, n)
    try:
        _bump(counters, "calls." + _ROLE_CLASS.get(args[1], "other"))
        _bump(counters, "bytes_in", 1 + len(args[2]))
        _bump(counters, "xof_read", args[3])
        _bump(counters, "xof_squeezed", args[3])
    except _SHAPE_ERRORS:
        pass


def _count_read(counters, fn, args, kwargs):
    # XofStream.read(self, n): a refill squeezes the whole buffer again
    stream = args[0]
    before = getattr(stream, "_buf", None)
    out = fn(*args, **kwargs)
    _bump(counters, "xof_read", len(out))
    after = getattr(stream, "_buf", None)
    if after is not before and after is not None:
        _bump(counters, "xof_squeezed", len(after))
    return out


def _count_sig_bytes(counters, fn, args, kwargs):
    out = fn(*args, **kwargs)
    _bump(counters, "sig_bytes", len(out))
    return out


def _shape(x):
    return getattr(x, "shape", None) or (len(x),)


def _prod(shape):
    out = 1
    for s in shape:
        out *= int(s)
    return out


def _count_matmul(counters, args, kwargs):
    # matmul(self, a, b=None, b_planes=None): (R, K) @ (K, C)
    try:
        b = args[2] if len(args) > 2 else kwargs.get("b")
        planes = args[3] if len(args) > 3 else kwargs.get("b_planes")
        cols = planes[1] if planes is not None else _shape(b)[-1]
        _bump(counters, "gemm.calls")
        _bump(counters, "gemm.macs", _prod(_shape(args[1])) * int(cols))
    except _SHAPE_ERRORS:
        pass


def _count_matmul3(counters, args, kwargs):
    # matmul3(self, a3, prepared): (T, R, K) @ (T, K, C); prepared is the
    # planes tuple (planes, C) in characteristic 2, else the (T, K, C) array
    try:
        prep = args[2] if len(args) > 2 else kwargs["prepared"]
        cols = prep[1] if isinstance(prep, tuple) else _shape(prep)[-1]
        _bump(counters, "gemm.calls")
        _bump(counters, "gemm.macs", _prod(_shape(args[1])) * int(cols))
    except _SHAPE_ERRORS:
        pass


def _count_calls(name):
    def hook(counters, args, kwargs):
        _bump(counters, name)
    return hook


# (module, attribute path, layer, quantity, keep span, pre hook, around hook)
_EXT = ("mul", "frob", "frob_matrix", "mul_matrices", "dot", "pow", "inv")
TARGETS = [
    ("mira.hashing", "HashSuite.hash", "hashing", "hash", False, _count_hash, None),
    ("mira.hashing", "HashSuite.xof", "hashing", "xof", False, _count_hash, None),
    ("mira.hashing", "HashSuite.xof_digest", "hashing", "xof", False, _count_xof_digest, None),
    ("mira.hashing", "XofStream.read", "hashing", "xof", False, None, _count_read),
    ("mira.hashing", "commit", "hashing", "commit", False, None, None),
    ("mira.hashing", "FieldSampler.take", "hashing", "sample", False, None, None),
    ("mira.hashing", "derive_challenge1", "hashing", "challenge", True, None, None),
    ("mira.hashing", "derive_challenge2_additive", "hashing", "challenge", True, None, None),
    ("mira.hashing", "derive_challenge2_threshold", "hashing", "challenge", True, None, None),
    ("mira.trees", "SeedTree.expand", "trees", "seed_expand", True, None, None),
    ("mira.trees", "leaves_from_path", "trees", "seed_from_path", True, None, None),
    ("mira.trees", "merkle_root", "trees", "merkle", True, None, None),
    ("mira.trees", "merkle_auth", "trees", "merkle", True, None, None),
    ("mira.trees", "merkle_root_from_auth", "trees", "merkle", True, None, None),
    ("mira.sharing", "expand_leaf_shares", "sharing", "leaf_expand", True, None, None),
    ("mira.sharing", "additive_share", "sharing", "additive_share", True, None, None),
    ("mira.sharing", "hypercube_aggregate", "sharing", "hypercube", True, None, None),
    ("mira.sharing", "shamir_share", "sharing", "shamir_share", True, None, None),
    ("mira.sharing", "shamir_expand", "sharing", "shamir_expand", True, None, None),
    ("mira.mpc", "ChallengeBatch.__init__", "mpc", "challenge_build", True, None, None),
    ("mira.mpc", "ChallengeBatch.broadcast_alpha", "mpc", "broadcast_alpha", True, None, None),
    ("mira.mpc", "ChallengeBatch.broadcast_v", "mpc", "broadcast_v", True, None, None),
    ("mira.mpc", "PkOperand.of", "mpc", "pk_operand", True, None, None),
    ("mira.mpc", "PkOperand.__init__", "mpc", "pk_operand", True,
     _count_calls("pk_operand.builds"), None),
    ("mira.mpc", "PkOperand._gf2_table", "mpc", "pk_operand", True, None, None),
    ("mira.mpc", "PkOperand.e_shares", "mpc", "e_shares", True, None, None),
    ("mira.fields", "Gf2Table.__init__", "mpc", "pk_operand", True, None, None),
    ("mira.fields", "Gf2Table.apply_packed", "fields", "gf2_apply", False, None, None),
    ("mira.fields", "Char2Field.matmul", "fields", "gemm", False, _count_matmul, None),
    ("mira.fields", "Char2Field.matmul3", "fields", "gemm", False, _count_matmul3, None),
    ("mira.fields", "PrimeField.matmul", "fields", "gemm", False, _count_matmul, None),
    ("mira.fields", "PrimeField.matmul3", "fields", "gemm", False, _count_matmul3, None),
] + [("mira.fields", "ExtField." + name, "fields", "ext", False, None, None)
     for name in _EXT] + [
    ("mira.qpoly", "annihilator", "qpoly", "annihilator", True, None, None),
    ("mira.keys", "keygen_optimized", "keys", "keygen", True, None, None),
    ("mira.keys", "_derive", "keys", "derive", True, None, None),
    ("mira.keys", "SecretKey.witness", "keys", "witness", True, None, None),
    ("mira.keys", "PublicKey.matrices", "keys", "expand", True, None, None),
    ("mira.keys", "PublicKey.from_bytes", "keys", "parse", True, None, None),
    ("mira.keys", "SecretKey.from_bytes", "keys", "parse", True, None, None),
    ("mira.cli", "main", "cli", "self", True, None, None),
]
for _mod in ("mira.sign_additive", "mira.sign_threshold"):
    TARGETS += [
        (_mod, "encode", "codec", "encode", True, None, _count_sig_bytes),
        (_mod, "decode", "codec", "decode", True, None, None),
        (_mod, "sign", "scheme", "sign", True, None, None),
        (_mod, "_sign_core", "scheme", "sign", True, None, None),
        (_mod, "verify", "scheme", "verify", True, None, None),
        (_mod, "verify_decoded", "scheme", "verify", True, None, None),
    ]
TARGETS.append(("mira.sign_additive", "_aggregate_rounds", "scheme", "aggregate",
                True, None, None))


class Operation:
    """One benchmark operation (keygen, sign, verify ...) and its tallies."""

    def __init__(self, op_id, kind, set_name):
        self.op_id = op_id
        self.kind = kind
        self.set_name = set_name
        self.start_ns = self.end_ns = 0
        self.child_ns = 0          # time inside wrapped top-level calls
        self.tally = {}            # (layer, quantity) -> [calls, self_ns, total_ns]
        self.counters = {}

    @property
    def duration_ns(self):
        return self.end_ns - self.start_ns

    def self_ms(self, layer, quantity=None):
        """Self time of a layer (or one of its quantities) in this operation."""
        return sum(v[1] for (lay, q), v in self.tally.items()
                   if lay == layer and quantity in (None, q)) / 1e6

    def total_ms(self, layer, quantity):
        """Summed call durations, nested wrapped calls included."""
        rec = self.tally.get((layer, quantity))
        return rec[2] / 1e6 if rec else 0.0

    def calls(self, layer, quantity):
        rec = self.tally.get((layer, quantity))
        return rec[0] if rec else 0


class Tracer:
    def __init__(self):
        self.missing = []
        self.spans = []
        self.operations = []
        self._patches = []         # (owner, attribute, original raw object)
        self._stack = []
        self._op = None
        self._next_id = 0

    # -- patching ------------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == "mira" or name.startswith("mira."))}
        for modname, path, layer, quantity, keep, pre, around in TARGETS:
            mod = mods.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{modname}.{path}")
                continue
            label = f"{layer}.{path}"
            if owner_name:
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(raw.__func__, label, layer, quantity,
                                               keep, pre, around))
                else:
                    new = self._wrap(raw, label, layer, quantity, keep, pre, around)
                self._patch(owner, attr, raw, new)
                continue
            new = self._wrap(raw, label, layer, quantity, keep, pre, around)
            # a module-level function is replaced wherever it was imported
            for m in mods.values():
                for name, val in list(vars(m).items()):
                    if val is raw:
                        self._patch(m, name, raw, new)

    def _patch(self, owner, attr, raw, new):
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []

    def patched(self):
        """(owner, attribute, original) for every replaced name."""
        return list(self._patches)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def operation(self, kind, set_name):
        if self._op is not None:
            raise RuntimeError("operations do not nest")
        op = Operation(len(self.operations), kind, set_name)
        self._op = op
        self._stack = []
        op.start_ns = time.perf_counter_ns()
        try:
            yield op
        finally:
            op.end_ns = time.perf_counter_ns()
            self._op = None
            self.operations.append(op)

    def _wrap(self, fn, label, layer, quantity, keep, pre, around):
        tracer = self
        key = (layer, quantity)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer._op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][1] if stack else None
            if keep:
                sid = tracer._next_id
                tracer._next_id += 1
                frame = [0, sid]
            else:
                frame = [0, parent]
            if pre is not None:
                pre(op.counters, args, kwargs)
            stack.append(frame)
            t0 = clock()
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(op.counters, fn, args, kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                else:
                    op.child_ns += dur
                rec = op.tally.get(key)
                if rec is None:
                    op.tally[key] = [1, dur - frame[0], dur]
                else:
                    rec[0] += 1
                    rec[1] += dur - frame[0]
                    rec[2] += dur
                if keep:
                    tracer.spans.append((label, t0, t1, sid, parent, op.op_id))

        return wrapper

    def write_spans(self, path):
        """One JSON object per line: operations first, then spans."""
        with open(path, "w") as fh:
            for op in self.operations:
                fh.write(json.dumps({"op": op.op_id, "kind": op.kind, "set": op.set_name,
                                     "start_ns": op.start_ns, "end_ns": op.end_ns}) + "\n")
            for label, t0, t1, sid, parent, op_id in self.spans:
                fh.write(json.dumps({"span": sid, "name": label, "start_ns": t0,
                                     "end_ns": t1, "parent": parent, "op": op_id}) + "\n")
