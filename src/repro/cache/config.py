"""Cache geometry configuration and validation."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.policies import ReplacementPolicy
from repro.errors import CacheConfigError
from repro.util.units import fmt_bytes, parse_size


def _log2_exact(n: int, what: str) -> int:
    if n <= 0 or n & (n - 1):
        raise CacheConfigError(f"{what} must be a positive power of two, got {n}")
    return n.bit_length() - 1


#: Mechanism kinds understood by :func:`parse_mechanisms` and
#: :mod:`repro.cache.components` (victim cache, miss cache, stream
#: buffers, per Jouppi's classification).
MECHANISM_KINDS = ("vc", "mc", "sb")

#: Default capacity per mechanism kind: victim/miss cache entries, or
#: stream-buffer count (mirrors the {2,4,8,16}-entry sweeps of the
#: VictimCacheMissSimulator design referenced in SNIPPETS.md #3).
_DEFAULT_ENTRIES = {"vc": 8, "mc": 8, "sb": 4}


@dataclass(frozen=True)
class MechanismSpec:
    """One miss-reduction mechanism in a cache's decorator stack.

    ``kind`` is ``"vc"`` (victim cache), ``"mc"`` (miss cache) or
    ``"sb"`` (stream buffers). ``entries`` is the fully-associative
    entry count for vc/mc and the buffer count for sb; ``depth`` is the
    per-buffer prefetch depth (sb only, ignored otherwise). Being a
    frozen dataclass, a spec hashes field-by-field into experiment
    cache keys through ``CacheConfig.mechanisms`` (see
    ``experiments/cache_store.canonical``).
    """

    kind: str
    entries: int = 0  # 0 = the kind's default
    depth: int = 4

    def __post_init__(self) -> None:
        if self.kind not in MECHANISM_KINDS:
            raise CacheConfigError(
                f"unknown mechanism kind {self.kind!r}; "
                f"available: {', '.join(MECHANISM_KINDS)}"
            )
        if self.entries == 0:
            object.__setattr__(self, "entries", _DEFAULT_ENTRIES[self.kind])
        if self.entries < 1:
            raise CacheConfigError(
                f"mechanism {self.kind!r} needs entries >= 1, got {self.entries}"
            )
        if self.depth < 1:
            raise CacheConfigError(
                f"mechanism {self.kind!r} needs depth >= 1, got {self.depth}"
            )

    def describe(self) -> str:
        if self.kind == "sb":
            return f"sb({self.entries}x{self.depth})"
        return f"{self.kind}({self.entries})"


def parse_mechanisms(spec) -> "tuple[MechanismSpec, ...]":
    """Normalise a mechanism spec to a tuple of :class:`MechanismSpec`.

    Accepts ``()``/``None``/``"none"``, an iterable of specs or kind
    strings, or a compact CLI string like ``"vc+sb"`` where each element
    is ``kind[:entries[:depth]]`` (e.g. ``"vc:16"``, ``"sb:4:8"``).
    Listed order is wrap order: each mechanism wraps the stack built so
    far, so the last one listed probes first on a miss path.
    """
    if spec is None or spec == () or spec == "":
        return ()
    if isinstance(spec, str):
        if spec.strip().lower() in ("none", "off"):
            return ()
        parts = [p.strip() for p in spec.split("+") if p.strip()]
        out = []
        for part in parts:
            fields = part.split(":")
            kind = fields[0].lower()
            entries = int(fields[1]) if len(fields) > 1 else 0
            depth = int(fields[2]) if len(fields) > 2 else 4
            out.append(MechanismSpec(kind, entries=entries, depth=depth))
        return tuple(out)
    out = []
    for item in spec:
        if isinstance(item, MechanismSpec):
            out.append(item)
        elif isinstance(item, str):
            out.extend(parse_mechanisms(item))
        else:
            raise CacheConfigError(
                f"mechanism entries must be MechanismSpec or str, got {item!r}"
            )
    return tuple(out)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a single-level set-associative cache.

    Defaults model the scaled experimental cache (256 KiB, 4-way, 64-byte
    lines); :meth:`paper` returns the paper's 2 MB geometry. Sizes accept
    ints (bytes) or strings like ``"256K"``.
    """

    size: int = 256 * 1024
    line_size: int = 64
    assoc: int = 4
    policy: ReplacementPolicy = field(default=ReplacementPolicy.LRU)
    #: Declarative miss-reduction decorator stack (victim cache, miss
    #: cache, stream buffers — see :mod:`repro.cache.components`).
    #: Accepts a tuple of :class:`MechanismSpec`, kind strings, or a
    #: compact ``"vc+sb"`` string; normalised to a spec tuple. It changes
    #: simulated behaviour, and it reaches every experiment cache key
    #: through the config's field-by-field hash.
    mechanisms: tuple = ()

    def __post_init__(self) -> None:
        size = parse_size(self.size) if isinstance(self.size, str) else self.size
        object.__setattr__(self, "size", size)
        _log2_exact(self.size, "cache size")
        _log2_exact(self.line_size, "line size")
        if self.assoc <= 0:
            raise CacheConfigError(f"associativity must be positive, got {self.assoc}")
        lines = self.size // self.line_size
        if lines % self.assoc:
            raise CacheConfigError(
                f"{lines} lines not divisible by associativity {self.assoc}"
            )
        if self.n_sets <= 0 or self.n_sets & (self.n_sets - 1):
            raise CacheConfigError(
                f"number of sets ({self.n_sets}) must be a power of two"
            )
        object.__setattr__(self, "mechanisms", parse_mechanisms(self.mechanisms))

    @property
    def n_lines(self) -> int:
        return self.size // self.line_size

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.assoc

    @property
    def line_bits(self) -> int:
        return self.line_size.bit_length() - 1

    @property
    def set_mask(self) -> int:
        return self.n_sets - 1

    def set_of(self, addr: int) -> int:
        """Set index of an address (index bits above the line offset)."""
        return (addr >> self.line_bits) & self.set_mask

    def line_of(self, addr: int) -> int:
        """Global line number of an address (address >> line bits)."""
        return addr >> self.line_bits

    @classmethod
    def paper(cls) -> "CacheConfig":
        """The paper's experimental geometry: 2 MB set-associative."""
        return cls(size=2 * 1024 * 1024, line_size=64, assoc=4)

    def resized(self, size: "int | str") -> "CacheConfig":
        """This geometry at a different total size (same line size,
        associativity, policy and mechanism stack) — the sweep
        helper experiment grids use to vary capacity alone."""
        import dataclasses

        return dataclasses.replace(self, size=size)

    def describe(self) -> str:
        base = (
            f"{fmt_bytes(self.size)} {self.assoc}-way, "
            f"{self.line_size}B lines, {self.n_sets} sets, {self.policy.value}"
        )
        if self.mechanisms:
            base += " + " + "+".join(m.describe() for m in self.mechanisms)
        return base
